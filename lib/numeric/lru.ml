type ('k, 'v) node = {
  nkey : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) shard = {
  m : Mutex.t;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutable size : int;
  cap : int;
}

type ('k, 'v) t = {
  shards : ('k, 'v) shard array;
  hash : 'k -> int;
  hits : Obs.Counter.t;
  misses : Obs.Counter.t;
  evictions : Obs.Counter.t;
}

let create ?(shards = 8) ~hash ~capacity ~prefix () =
  if capacity <= 0 then invalid_arg (prefix ^ ": capacity must be > 0");
  let shards = max 1 shards in
  let per_shard = (capacity + shards - 1) / shards in
  let counter what = Obs.Counter.make (prefix ^ "." ^ what) in
  {
    shards =
      Array.init shards (fun _ ->
          {
            m = Mutex.create ();
            tbl = Hashtbl.create 16;
            head = None;
            tail = None;
            size = 0;
            cap = per_shard;
          });
    hash;
    hits = counter "hits";
    misses = counter "misses";
    evictions = counter "evictions";
  }

let shard_of t k = t.shards.(t.hash k mod Array.length t.shards)

let locked sh f =
  Mutex.lock sh.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.m) f

(* List surgery below runs under the shard mutex. *)

let unlink sh n =
  (match n.prev with Some p -> p.next <- n.next | None -> sh.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> sh.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front sh n =
  n.next <- sh.head;
  n.prev <- None;
  (match sh.head with Some h -> h.prev <- Some n | None -> sh.tail <- Some n);
  sh.head <- Some n

let find t k =
  let sh = shard_of t k in
  locked sh (fun () ->
      match Hashtbl.find_opt sh.tbl k with
      | Some n ->
          unlink sh n;
          push_front sh n;
          Obs.Counter.incr t.hits;
          Some n.value
      | None ->
          Obs.Counter.incr t.misses;
          None)

let add t k v =
  let sh = shard_of t k in
  locked sh (fun () ->
      match Hashtbl.find_opt sh.tbl k with
      | Some n ->
          n.value <- v;
          unlink sh n;
          push_front sh n
      | None -> (
          let n = { nkey = k; value = v; prev = None; next = None } in
          Hashtbl.replace sh.tbl k n;
          push_front sh n;
          if sh.size < sh.cap then sh.size <- sh.size + 1
          else
            match sh.tail with
            | Some lru ->
                unlink sh lru;
                Hashtbl.remove sh.tbl lru.nkey;
                Obs.Counter.incr t.evictions
            | None -> assert false))

let clear t =
  Array.iter
    (fun sh ->
      locked sh (fun () ->
          Hashtbl.reset sh.tbl;
          sh.head <- None;
          sh.tail <- None;
          sh.size <- 0))
    t.shards

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

(* Reads the shard sizes without their locks: a racy read of an int is
   safe, and a stats reader never waits behind a busy shard. *)
let stats (t : _ t) =
  {
    hits = Obs.Counter.value t.hits;
    misses = Obs.Counter.value t.misses;
    evictions = Obs.Counter.value t.evictions;
    size = Array.fold_left (fun a (sh : _ shard) -> a + sh.size) 0 t.shards;
    capacity = Array.length t.shards * t.shards.(0).cap;
  }
