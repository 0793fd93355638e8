(* Tests for the durable content-addressed store: append/find round
   trips, write-behind visibility, reopen recovery (index rebuilt from
   the shard logs), torn-tail truncation, checksum rejection,
   last-record-wins, and the service-level disk-warm path — a fresh
   service on the same store directory answers from disk without
   recomputing. *)

module Store = Svc.Store
module Key = Svc.Key
module Proto = Svc.Proto
module Service = Svc.Service

let temp_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o700;
    d

let key i = Key.of_hex (Printf.sprintf "%032x" i)

(* ------------------------------------------------------------------ *)
(* basic operation                                                      *)

let test_roundtrip () =
  let dir = temp_dir "store-rt" in
  let s = Store.open_dir ~shards:4 ~flush_every:2 dir in
  Store.add s (key 1) "alpha";
  Store.add s (key 2) "beta";
  Store.add s (key 3) "";
  (* write-behind: visible before any flush *)
  Alcotest.(check (option string)) "mem-tier read" (Some "alpha")
    (Store.find s (key 1));
  Alcotest.(check bool) "mem" true (Store.mem s (key 2));
  Alcotest.(check bool) "absent" false (Store.mem s (key 9));
  Alcotest.(check (option string)) "missing key" None (Store.find s (key 9));
  Store.flush s;
  Alcotest.(check (option string)) "disk-tier read" (Some "alpha")
    (Store.find s (key 1));
  Alcotest.(check (option string)) "empty payload ok" (Some "")
    (Store.find s (key 3));
  Alcotest.(check int) "entries" 3 (Store.entries s);
  Store.close s

let test_reopen_recovers () =
  let dir = temp_dir "store-reopen" in
  let s = Store.open_dir ~shards:4 dir in
  for i = 1 to 20 do
    Store.add s (key i) (Printf.sprintf "payload-%d" i)
  done;
  Store.close s;
  let s2 = Store.open_dir ~shards:4 dir in
  Alcotest.(check int) "all records recovered" 20
    (Store.recovery s2).Store.recovered;
  Alcotest.(check int) "no torn tail" 0
    (Store.recovery s2).Store.truncated_bytes;
  Alcotest.(check int) "entries" 20 (Store.entries s2);
  for i = 1 to 20 do
    Alcotest.(check (option string))
      (Printf.sprintf "key %d" i)
      (Some (Printf.sprintf "payload-%d" i))
      (Store.find s2 (key i))
  done;
  Store.close s2

let test_last_record_wins () =
  let dir = temp_dir "store-lww" in
  let s = Store.open_dir ~shards:2 dir in
  Store.add s (key 7) "first";
  Store.flush s;
  Store.add s (key 7) "second";
  Store.close s;
  let s2 = Store.open_dir ~shards:2 dir in
  Alcotest.(check (option string)) "newest record wins" (Some "second")
    (Store.find s2 (key 7));
  Store.close s2

(* ------------------------------------------------------------------ *)
(* crash recovery                                                       *)

let data_shards dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         let p = Filename.concat dir f in
         if Filename.check_suffix f ".log" && (Unix.stat p).Unix.st_size > 0
         then Some p
         else None)

let append_bytes path bytes =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  output_string oc bytes;
  close_out oc

let test_torn_tail_truncated () =
  let dir = temp_dir "store-torn" in
  let s = Store.open_dir ~shards:1 dir in
  Store.add s (key 1) "kept-1";
  Store.add s (key 2) "kept-2";
  Store.close s;
  let shard = List.hd (data_shards dir) in
  let before = (Unix.stat shard).Unix.st_size in
  (* a crash mid-append: a header that promises more bytes than exist *)
  append_bytes shard "RPS1\x10\x00\x00\x00\xff\xff";
  let s2 = Store.open_dir ~shards:1 dir in
  Alcotest.(check int) "intact records survive" 2
    (Store.recovery s2).Store.recovered;
  Alcotest.(check int) "torn bytes truncated" 10
    (Store.recovery s2).Store.truncated_bytes;
  Alcotest.(check (option string)) "record before the tear" (Some "kept-2")
    (Store.find s2 (key 2));
  Store.close s2;
  Alcotest.(check int) "file back to its pre-crash length" before
    (Unix.stat shard).Unix.st_size;
  (* and the truncated log keeps accepting appends *)
  let s3 = Store.open_dir ~shards:1 dir in
  Store.add s3 (key 3) "after-recovery";
  Store.close s3;
  let s4 = Store.open_dir ~shards:1 dir in
  Alcotest.(check int) "append after recovery persisted" 3
    (Store.recovery s4).Store.recovered;
  Store.close s4

let test_corrupt_record_rejected () =
  let dir = temp_dir "store-corrupt" in
  let s = Store.open_dir ~shards:1 dir in
  Store.add s (key 1) "good-record";
  Store.flush s;
  let shard = List.hd (data_shards dir) in
  let keep = (Unix.stat shard).Unix.st_size in
  Store.add s (key 2) "will-be-corrupted";
  Store.close s;
  (* flip one payload byte of the second record: its digest no longer
     matches, so recovery must drop it (and everything after) *)
  let fd = Unix.openfile shard [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd ((Unix.fstat fd).Unix.st_size - 1) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "X") 0 1);
  Unix.close fd;
  let s2 = Store.open_dir ~shards:1 dir in
  Alcotest.(check int) "only the intact record survives" 1
    (Store.recovery s2).Store.recovered;
  Alcotest.(check bool) "torn bytes reported" true
    ((Store.recovery s2).Store.truncated_bytes > 0);
  Alcotest.(check (option string)) "intact record readable"
    (Some "good-record")
    (Store.find s2 (key 1));
  Alcotest.(check (option string)) "corrupt record gone" None
    (Store.find s2 (key 2));
  Store.close s2;
  Alcotest.(check int) "file truncated to the last valid record" keep
    (Unix.stat shard).Unix.st_size

(* ------------------------------------------------------------------ *)
(* service-level disk warmth                                            *)

let counter name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.counters with
  | Some v -> v
  | None -> 0

let request n =
  Proto.request ~params:[ ("n", n) ] ~id:(Printf.sprintf "r%d" n) ~name:"warm"
    (Proto.Src "DO i = 1, n\n  A(i) = A(i-1) + 1\nENDDO\n")

let service_config dir =
  {
    Service.default_config with
    domains = 1;
    threads = 1;
    check = false;
    measure = false;
    store_dir = Some dir;
  }

(* Three distinct keys.  After a restart on the same directory, each is
   answered from the store: disk-warm hits = store reads = distinct keys.
   A second lookup is then a memory hit, not another store read. *)
let test_disk_warm_short_circuit () =
  let dir = temp_dir "store-svc" in
  let keys = [ 24; 25; 26 ] in
  let distinct = List.length keys in
  let run_all svc = List.map (fun n -> Service.run_one svc (request n)) keys in
  let cached rs = List.length (List.filter (fun r -> r.Proto.cached) rs) in
  let all_ok what rs =
    List.iter
      (fun r ->
        Alcotest.(check bool) (what ^ " " ^ r.Proto.id ^ " ok") true (Proto.ok r))
      rs
  in
  (* first process: compute, persist *)
  let svc = Service.create ~config:(service_config dir) () in
  let first = run_all svc in
  all_ok "first run" first;
  Alcotest.(check int) "first run computed every key" 0 (cached first);
  Service.shutdown svc;
  (* "restarted process": a fresh service, cold memory cache, same dir *)
  let hits0 = counter "svc.store.hits" in
  let svc2 = Service.create ~config:(service_config dir) () in
  let disk = run_all svc2 in
  all_ok "disk-warm run" disk;
  Alcotest.(check int) "disk-warm hits = distinct keys" distinct (cached disk);
  Alcotest.(check int) "store reads = distinct keys" distinct
    (counter "svc.store.hits" - hits0);
  (* promotion: the second lookup is a memory hit, not a second store
     read *)
  let hits1 = counter "svc.store.hits" in
  let warm = run_all svc2 in
  Alcotest.(check int) "promoted to memory" distinct (cached warm);
  Alcotest.(check int) "no second store read" hits1
    (counter "svc.store.hits");
  Service.shutdown svc2

let test_garbage_store_file_is_empty () =
  let dir = temp_dir "store-garbage" in
  let path = Filename.concat dir "shard-00.log" in
  append_bytes path "this is not a store file at all\n";
  let s = Store.open_dir ~shards:1 dir in
  Alcotest.(check int) "nothing recovered" 0 (Store.recovery s).Store.recovered;
  Alcotest.(check bool) "garbage truncated" true
    ((Store.recovery s).Store.truncated_bytes > 0);
  Alcotest.(check int) "store usable and empty" 0 (Store.entries s);
  Store.add s (key 1) "fresh";
  Store.close s;
  let s2 = Store.open_dir ~shards:1 dir in
  Alcotest.(check (option string)) "fresh record persisted" (Some "fresh")
    (Store.find s2 (key 1));
  Store.close s2

let () =
  Alcotest.run "store"
    [
      ( "basic",
        [
          Alcotest.test_case "add/find/mem round trip" `Quick test_roundtrip;
          Alcotest.test_case "reopen rebuilds the index" `Quick
            test_reopen_recovers;
          Alcotest.test_case "last record wins" `Quick test_last_record_wins;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "torn tail truncated" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "checksum rejects corruption" `Quick
            test_corrupt_record_rejected;
          Alcotest.test_case "garbage file treated as empty" `Quick
            test_garbage_store_file_is_empty;
        ] );
      ( "service",
        [
          Alcotest.test_case "disk-warm hit skips recomputation" `Quick
            test_disk_warm_short_circuit;
        ] );
    ]
