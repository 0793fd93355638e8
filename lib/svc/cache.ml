module Lru = Numeric.Lru

(* Optional durable second tier: a memory miss falls through to the
   store, a decoded payload is promoted into memory, and every insert is
   written behind to the log.  The codec lives with the tier because the
   cache is polymorphic and the store speaks strings. *)
type 'v tier = {
  t_store : Store.t;
  t_encode : 'v -> string;
  t_decode : string -> 'v option;
}

type 'v t = { mem : (Key.t, 'v) Lru.t; mutable tier : 'v tier option }

let create ?shards ~capacity ~name () =
  {
    mem =
      Lru.create ?shards ~hash:Key.hash ~capacity
        ~prefix:("svc.cache." ^ name) ();
    tier = None;
  }

let attach_store t ~store ~encode ~decode =
  if Option.is_some t.tier then
    invalid_arg "Svc.Cache.attach_store: tier already attached";
  t.tier <- Some { t_store = store; t_encode = encode; t_decode = decode }

let find t k =
  match (Lru.find t.mem k, t.tier) with
  | (Some _ as hit), _ -> hit
  | None, None -> None
  | None, Some tier -> (
      (* Read-through outside the shard lock: the store has its own
         locks and a disk read must not block the hot memory path.  The
         promotion must not re-append the record it just read. *)
      match Option.bind (Store.find tier.t_store k) tier.t_decode with
      | None -> None
      | Some v as hit ->
          Lru.add t.mem k v;
          hit)

let add t k v =
  Lru.add t.mem k v;
  match t.tier with
  | None -> ()
  | Some tier ->
      (* Skip re-appending a key the log already holds (memory eviction
         followed by recompute would otherwise grow the log forever); a
         racing duplicate append is harmless — last record wins. *)
      if not (Store.mem tier.t_store k) then
        Store.add tier.t_store k (tier.t_encode v)

let stats t = Lru.stats t.mem
