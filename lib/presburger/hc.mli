(** Capacity-bounded node/memo tables keyed by the 128-bit
    {!Numeric.Digest} — the hash-consing and memoization substrate of the
    presburger layer.

    Digest equality is treated as definitive (128 bits of FNV-1a over the
    full syntactic content): a hit returns the stored value without a
    structural re-check.  Each table is a {!Numeric.Lru}; eviction loses
    only sharing/memoization, never correctness.  Each table registers
    [presburger.memo.<name>.{hits,misses,evictions}] counters in
    {!Obs.Metrics}. *)

type 'v memo = (Numeric.Digest.t, 'v) Numeric.Lru.t

val memo : ?shards:int -> name:string -> capacity:int -> unit -> 'v memo
(** Creates a table and registers it (for {!clear_all}/{!totals}) and its
    counters.  Default 8 shards; capacity is split across shards. *)

val get : 'v memo -> Numeric.Digest.t -> (unit -> 'v) -> 'v
(** [get t k f] returns the cached value for [k], computing and storing
    [f ()] on a miss.  The compute runs outside the shard lock (concurrent
    misses duplicate work, never corrupt the table); exceptions from [f]
    propagate and cache nothing.  When memoization is disabled
    ({!set_enabled}[ false]) this is just [f ()]. *)

val set_enabled : bool -> unit
(** Process-wide switch, on by default.  Tests flip it off to compute
    unmemoized reference results. *)

val enabled : unit -> bool

val clear_all : unit -> unit
(** Empties every registered table (cold-analyze benchmarking).  Counters
    are cumulative and are not reset. *)

type totals = { hits : int; misses : int; evictions : int }

val totals : unit -> totals
(** Sums the hit/miss/eviction counters over every registered table. *)
