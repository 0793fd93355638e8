(** The service's result cache: a sharded {!Numeric.Lru} over
    content-addressed {!Key}s, with an optional durable {!Store} tier
    below it.  Hit, miss and eviction totals are registered as
    [svc.cache.<name>.hits|misses|evictions].

    Coherence model: the cache stores immutable analysis results keyed by
    content hash, so there is nothing to invalidate — a key can only ever
    map to one value.  Two domains missing on the same key concurrently
    may both compute the result; the second {!add} simply overwrites the
    (identical) first. *)

type 'v t

val create : ?shards:int -> capacity:int -> name:string -> unit -> 'v t
(** [create ~capacity ~name ()] holds at most [capacity] entries over
    [shards] (see {!Numeric.Lru.create}).  [name] scopes the metric
    counters; caches sharing a name share counters. *)

val attach_store :
  'v t ->
  store:Store.t ->
  encode:('v -> string) ->
  decode:(string -> 'v option) ->
  unit
(** Attach a durable {!Store} as a read-through / write-behind second
    tier: {!find} falls through to the store on a memory miss (a decoded
    payload is promoted into memory without re-appending it), and
    {!add} also appends the encoded value to the log (skipped when the
    key is already on disk).  [decode] returning [None] — a corrupt or
    version-incompatible payload — degrades to a miss.  @raise
    Invalid_argument if a tier is already attached. *)

val find : 'v t -> Key.t -> 'v option
(** Lookup; a hit refreshes the entry's recency.  With a store tier
    attached, a memory miss that hits the log counts as a
    [svc.store.hits] (the memory miss counter still moves — diff the
    two layers to separate warm from disk-warm traffic). *)

val add : 'v t -> Key.t -> 'v -> unit
(** Insert (or overwrite) as most recently used, evicting the shard's LRU
    entry when the shard is full; write-behind to the store tier when one
    is attached. *)

val stats : 'v t -> Numeric.Lru.stats
