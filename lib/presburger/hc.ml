(* Content-addressed node and memo tables for the presburger layer.

   Every table is a Numeric.Lru keyed by a 128-bit Numeric.Digest (the
   same FNV-1a discipline as Svc.Key) and digest equality is treated as
   definitive: a hit returns the stored value without re-checking the
   inputs structurally.  Tables stay capacity-bounded under unbounded
   batch/serve traffic — eviction only costs a recomputation, never
   correctness.

   Counters are registered per table as presburger.memo.<name>.{hits,
   misses,evictions}; Pipeline.Report and `recpart explain` surface them
   through the generic Obs.Metrics diff. *)

module Lru = Numeric.Lru

type 'v memo = (Numeric.Digest.t, 'v) Lru.t

(* Memoization is process-wide and on by default; tests flip it off to
   compute unmemoized reference results, benches clear the tables to
   measure a cold analyze. *)
let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

type entry = E : 'v memo -> entry

let registry : entry list Atomic.t = Atomic.make []

let rec register e =
  let cur = Atomic.get registry in
  if not (Atomic.compare_and_set registry cur (e :: cur)) then register e

let memo ?shards ~name ~capacity () =
  let t =
    Lru.create ?shards ~hash:Numeric.Digest.hash ~capacity
      ~prefix:("presburger.memo." ^ name) ()
  in
  register (E t);
  t

let clear_all () = List.iter (fun (E t) -> Lru.clear t) (Atomic.get registry)

type totals = { hits : int; misses : int; evictions : int }

let totals () =
  List.fold_left
    (fun acc (E t) ->
      let s = Lru.stats t in
      {
        hits = acc.hits + s.Lru.hits;
        misses = acc.misses + s.Lru.misses;
        evictions = acc.evictions + s.Lru.evictions;
      })
    { hits = 0; misses = 0; evictions = 0 }
    (Atomic.get registry)

(* The compute runs outside the shard lock: concurrent misses on the same
   key both compute and both store (last write wins) — duplicated work,
   never an inconsistent table.  An exception from [f] propagates and
   caches nothing. *)
let get t k f =
  if not (Atomic.get enabled_flag) then f ()
  else
    match Lru.find t k with
    | Some v -> v
    | None ->
        let v = f () in
        Lru.add t k v;
        v
