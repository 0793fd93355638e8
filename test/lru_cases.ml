(* Test bodies shared by test_svc and test_hc: the sharded LRU
   (Numeric.Lru) sits behind both the service result cache and the
   presburger memo tables, and every case here runs against either
   wrapper through the [lru] record, over int-indexed keys of that
   wrapper's key type. *)

module Lru = Numeric.Lru

type lru = {
  find : int -> string option;
  add : int -> string -> unit;
  stats : unit -> Lru.stats;
}

let hc_memo ~shards ~capacity ~name =
  let t = Presburger.Hc.memo ~shards ~capacity ~name () in
  let key = Numeric.Digest.add_int Numeric.Digest.seed in
  {
    find = (fun i -> Lru.find t (key i));
    add = (fun i -> Lru.add t (key i));
    stats = (fun () -> Lru.stats t);
  }

let lru_order mk =
  let c = mk ~shards:1 ~capacity:3 ~name:"t-lru" in
  c.add 0 "a";
  c.add 1 "b";
  c.add 2 "c";
  (* refresh a, so b is now least recently used *)
  Alcotest.(check (option string)) "hit a" (Some "a") (c.find 0);
  c.add 3 "d";
  Alcotest.(check (option string)) "b evicted" None (c.find 1);
  Alcotest.(check (option string)) "a kept" (Some "a") (c.find 0);
  Alcotest.(check (option string)) "c kept" (Some "c") (c.find 2);
  Alcotest.(check (option string)) "d kept" (Some "d") (c.find 3);
  Alcotest.(check int) "still 3 entries" 3 (c.stats ()).Lru.size

let capacity_bound mk =
  let c = mk ~shards:4 ~capacity:10 ~name:"t-cap" in
  let before = c.stats () in
  let effective = before.Lru.capacity in
  Alcotest.(check bool)
    "effective capacity covers requested" true (effective >= 10);
  for i = 1 to 100 do
    c.add i (string_of_int i)
  done;
  let st = c.stats () in
  Alcotest.(check bool)
    (Printf.sprintf "length %d <= effective capacity %d" st.Lru.size
       effective)
    true
    (st.Lru.size <= effective);
  Alcotest.(check bool) "evictions happened" true
    (st.Lru.evictions > before.Lru.evictions)

let concurrent mk =
  let c = mk ~shards:8 ~capacity:16 ~name:"t-conc" in
  let before = c.stats () in
  let n_keys = 32 in
  let lookups_per_domain = 1_000 in
  let worker seed () =
    let state = ref seed in
    for _ = 1 to lookups_per_domain do
      (* xorshift: cheap deterministic per-domain key sequence *)
      state := !state lxor (!state lsl 13);
      state := !state lxor (!state lsr 7);
      state := !state lxor (!state lsl 17);
      let i = abs !state mod n_keys in
      match c.find i with Some _ -> () | None -> c.add i "v"
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker (d + 1))) in
  List.iter Domain.join domains;
  let st = c.stats () in
  let hits = st.Lru.hits - before.Lru.hits in
  let misses = st.Lru.misses - before.Lru.misses in
  Alcotest.(check int)
    "every lookup was a hit or a miss"
    (4 * lookups_per_domain)
    (hits + misses);
  Alcotest.(check bool) "some hits" true (hits > 0);
  Alcotest.(check bool)
    "size within capacity" true
    (st.Lru.size <= st.Lru.capacity)
