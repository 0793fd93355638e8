(** Sharded, capacity-bounded LRU tables — the one cache implementation
    behind both {!Presburger.Hc} (digest-keyed memo tables) and
    [Svc.Cache] (the service's result cache).

    Each shard owns a mutex, a hash table and an intrusive
    most-recently-used list; a lookup or insert locks exactly one shard,
    so concurrent callers on different keys rarely contend.  LRU order is
    per shard: eviction picks the least recently used entry {e of the
    full shard}, which approximates global LRU the way sharded caches
    usually do.  Keys are compared structurally; the caller's [hash]
    only picks the shard.

    Hit, miss and eviction totals are {!Obs.Counter}s registered as
    [<prefix>.hits|misses|evictions], so they appear in {!Obs.Metrics}
    snapshots for free; tables sharing a prefix share counters. *)

type ('k, 'v) t

val create :
  ?shards:int ->
  hash:('k -> int) ->
  capacity:int ->
  prefix:string ->
  unit ->
  ('k, 'v) t
(** Holds at most [capacity] (> 0) entries in total, split evenly over
    [shards] (default 8, clamped to ≥ 1; each shard gets at least one
    slot — the effective total is [shards × ⌈capacity/shards⌉ ≥
    capacity]). *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert (or overwrite) as most recently used, evicting the shard's LRU
    entry when the shard is full. *)

val clear : ('k, 'v) t -> unit
(** Drops every entry; the counters are cumulative and keep their
    values. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;  (** entries held now *)
  capacity : int;  (** effective total capacity (see {!create}) *)
}

val stats : ('k, 'v) t -> stats
(** Lock-free.  The counter totals are cumulative for the process (they
    are shared metrics); diff two [stats] for a per-run view. *)
