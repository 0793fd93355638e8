(* Tests for the analysis service layer: content-addressed keys (format
   insensitivity, alpha-renaming, determinism), the sharded LRU behind
   both the result cache and the presburger memo tables (eviction order,
   capacity, multi-domain consistency), the one domain pool serving
   requests (drain-on-shutdown, panic isolation, pool-of-1 ≡ sequential,
   spawn count, DNF runner ownership), the
   JSONL protocol, and end-to-end service behavior (cache hits on
   duplicates, per-request error isolation, deadlines). *)

module Key = Svc.Key
module Cache = Svc.Cache
module Lru = Numeric.Lru
module Workers = Runtime.Workers
module Proto = Svc.Proto
module Service = Svc.Service

let parse name src = Loopir.Parser.parse ~name src

(* ------------------------------------------------------------------ *)
(* Key                                                                  *)

let base_src = "DO i = 1, n\n  DO j = 1, i\n    A(i+j, j) = A(j, i)\n  ENDDO\nENDDO\n"

let test_key_whitespace_comments () =
  let a = parse "a" base_src in
  let b =
    parse "b"
      "! a comment line\n\
       DO   i = 1,   n   ! trailing comment\n\
       DO j = 1, i\n\
       \    A( i + j , j ) = A( j , i )\n\
       ENDDO\n\
       \n\
       ENDDO\n"
  in
  let k p = Key.to_string (Key.of_request ~params:[ ("n", 10) ] p) in
  Alcotest.(check string)
    "whitespace/comments/program name do not change the key" (k a) (k b)

let test_key_alpha_renaming () =
  let a = parse "a" base_src in
  let b =
    parse "b"
      "DO outer = 1, n\n\
      \  DO q = 1, outer\n\
      \    A(outer+q, q) = A(q, outer)\n\
      \  ENDDO\n\
       ENDDO\n"
  in
  let k p = Key.to_string (Key.of_request ~params:[ ("n", 10) ] p) in
  Alcotest.(check string) "loop index names do not change the key" (k a) (k b);
  (* ... but the renaming respects binding structure: swapping which index
     appears in the subscripts is a different program. *)
  let c =
    parse "c"
      "DO i = 1, n\n\
      \  DO j = 1, i\n\
      \    A(i+j, i) = A(i, j)\n\
      \  ENDDO\n\
       ENDDO\n"
  in
  Alcotest.(check bool)
    "swapped subscript roles is a different key" false
    (k a = k c)

let test_key_params_and_strategy () =
  let p = parse "p" base_src in
  let k ?strategy params = Key.to_string (Key.of_request ?strategy ~params p) in
  Alcotest.(check bool)
    "a relevant binding changes the key" false
    (k [ ("n", 10) ] = k [ ("n", 11) ]);
  Alcotest.(check string)
    "an irrelevant binding does not" (k [ ("n", 10) ])
    (k [ ("n", 10); ("unused", 99) ]);
  Alcotest.(check string)
    "binding order does not"
    (k [ ("n", 10); ("unused", 1) ])
    (k [ ("unused", 1); ("n", 10) ]);
  Alcotest.(check bool)
    "a forced strategy changes the key" false
    (k [ ("n", 10) ] = k ~strategy:Pipeline.Plan.Rec [ ("n", 10) ])

(* If this digest changes, every persisted cache key in the wild is
   silently invalidated — bump it only with a deliberate key-format
   change. *)
let test_key_determinism () =
  let k () =
    Key.to_string
      (Key.of_request ~params:[ ("n1", 30); ("n2", 40) ]
         Loopir.Builtin.example1)
  in
  Alcotest.(check string) "key is deterministic" (k ()) (k ());
  Alcotest.(check string) "key format regression"
    "bfca8dbe905073d674d245c3d40ff815" (k ())

(* ------------------------------------------------------------------ *)
(* Cache                                                                *)

(* Distinct keys from distinct parameter bindings of one program. *)
let key_of_int =
  let p = parse "keygen" base_src in
  fun i -> Key.of_request ~params:[ ("n", i) ] p

(* The one LRU behind both wrappers: the cases of Lru_cases run against
   the service result cache here and against a presburger memo table
   (test_hc runs the eviction-order case on its own memo). *)
let svc_keys = Array.init 101 key_of_int

let svc_cache ~shards ~capacity ~name =
  let c = Cache.create ~shards ~capacity ~name () in
  {
    Lru_cases.find = (fun i -> Cache.find c svc_keys.(i));
    add = (fun i -> Cache.add c svc_keys.(i));
    stats = (fun () -> Cache.stats c);
  }

let on_both_lrus test () = List.iter test [ svc_cache; Lru_cases.hc_memo ]

(* ------------------------------------------------------------------ *)
(* Pool: the service's admitted jobs on the one Runtime.Workers pool    *)

let test_pool_shutdown_drains () =
  let pool = Workers.serving ~queue_capacity:8 ~domains:2 in
  let done_count = Atomic.make 0 in
  for _ = 1 to 50 do
    Workers.submit pool (fun () -> Atomic.incr done_count)
  done;
  Workers.shutdown pool;
  Alcotest.(check int) "all queued jobs ran" 50 (Atomic.get done_count);
  Alcotest.(check bool)
    "submit after shutdown raises Closed" true
    (match Workers.submit pool (fun () -> ()) with
    | () -> false
    | exception Workers.Closed -> true)

let test_pool_panic_isolation () =
  let panics = Obs.Counter.make "runtime.workers.panics" in
  let before = Obs.Counter.value panics in
  let pool = Workers.serving ~queue_capacity:4 ~domains:2 in
  let ok = Atomic.make 0 in
  for i = 1 to 20 do
    if i mod 2 = 0 then Workers.submit pool (fun () -> failwith "boom")
    else Workers.submit pool (fun () -> Atomic.incr ok)
  done;
  Workers.shutdown pool;
  Alcotest.(check int) "good jobs all completed" 10 (Atomic.get ok);
  Alcotest.(check int) "panics counted" 10 (Obs.Counter.value panics - before)

(* A pool of one domain must produce exactly what the calling domain
   produces: same status, strategy and survey for every request. *)
let test_pool_of_one_sequential () =
  let config =
    {
      Service.default_config with
      domains = 1;
      threads = 1;
      check = false;
      measure = false;
    }
  in
  let requests =
    List.map
      (fun (name, prog) ->
        Proto.request ~id:name ~name
          ~params:(List.map (fun p -> (p, 8)) prog.Loopir.Ast.params)
          ~mode:Proto.Classify (Proto.Prog prog))
      Loopir.Builtin.corpus
  in
  let pooled = Service.create ~config () in
  let via_pool = Service.batch pooled requests in
  Service.shutdown pooled;
  let direct = Service.create ~config () in
  let via_caller = List.map (Service.run_one direct) requests in
  Service.shutdown direct;
  let essence (r : Proto.response) =
    ( r.Proto.id,
      match r.Proto.body with
      | Proto.Done { strategy; survey; _ } ->
          Ok (strategy, Option.map (fun s -> s.Proto.cls) survey)
      | Proto.Failed f -> Error (Proto.failure_kind f)
      | Proto.Stats _ | Proto.Healthy _ -> Error "introspective" )
  in
  Alcotest.(check int)
    "one response per request"
    (List.length requests)
    (List.length via_pool);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "pool-of-1 matches sequential for %s"
           (fst (essence a)))
        true
        (essence a = essence b))
    via_pool via_caller

(* ------------------------------------------------------------------ *)
(* Proto                                                                *)

let test_proto_round_trip () =
  let req =
    Proto.request ~id:"r1" ~name:"nest"
      ~params:[ ("n", 30); ("m", 4) ]
      ~strategy:Pipeline.Plan.Rec ~threads:3 ~mode:Proto.Classify
      ~survey:true ~deadline_s:2.5 (Proto.Src base_src)
  in
  let line = Pipeline.Json.to_string (Proto.request_to_json req) in
  match Proto.request_of_line line with
  | Error f -> Alcotest.failf "round trip failed: %s" f.Proto.message
  | Ok got ->
      Alcotest.(check string) "id" req.Proto.id got.Proto.id;
      Alcotest.(check string) "name" req.Proto.name got.Proto.name;
      Alcotest.(check bool) "params" true (got.Proto.params = req.Proto.params);
      Alcotest.(check bool)
        "strategy" true
        (got.Proto.strategy = Some Pipeline.Plan.Rec);
      Alcotest.(check bool) "threads" true (got.Proto.threads = Some 3);
      Alcotest.(check bool) "mode" true (got.Proto.mode = Proto.Classify);
      Alcotest.(check bool) "survey" true got.Proto.survey;
      Alcotest.(check bool)
        "deadline" true
        (got.Proto.deadline_s = Some 2.5);
      (* and the parsed source hashes like the original program *)
      let prog_of r =
        match r.Proto.source with
        | Proto.Prog p -> p
        | Proto.Src s -> parse r.Proto.name s
      in
      Alcotest.(check string) "source survives"
        (Key.to_string
           (Key.of_request ~params:req.Proto.params (prog_of req)))
        (Key.to_string
           (Key.of_request ~params:req.Proto.params (prog_of got)))

let test_proto_malformed_lines () =
  let expect_error ?line_id line what =
    match Proto.request_of_line line with
    | Ok _ -> Alcotest.failf "%s unexpectedly parsed" what
    | Error f ->
        Alcotest.(check (option string))
          (what ^ ": line_id")
          line_id f.Proto.line_id
  in
  expect_error "not json at all" "garbage";
  expect_error "[1,2]" "non-object";
  expect_error {|{"name":"x","src":"DO"}|} "missing id";
  expect_error ~line_id:"r9" {|{"id":"r9","name":"x"}|} "missing src";
  expect_error ~line_id:"r9"
    {|{"id":"r9","name":"x","src":"A(1)=2","strategy":"zigzag"}|}
    "unknown strategy";
  expect_error ~line_id:"r9"
    {|{"id":"r9","name":"x","src":"A(1)=2","threads":0}|}
    "bad thread count"

(* ------------------------------------------------------------------ *)
(* Service                                                              *)

let quiet_config ~domains =
  {
    Service.default_config with
    domains;
    threads = 1;
    check = false;
    measure = false;
  }

(* Service.create spawns exactly [config.domains] domains whatever the
   per-request thread count, and a batch spawns nothing more: requests,
   their phases and their DNF jobs all run on those domains. *)
let test_service_spawns_domains () =
  let spawned = Obs.Counter.make "runtime.workers.spawned" in
  List.iter
    (fun threads ->
      let s0 = Obs.Counter.value spawned in
      let svc = Service.create ~config:{ (quiet_config ~domains:3) with threads } () in
      let resps =
        Service.batch svc
          (List.init 100 (fun i ->
               Proto.request ~id:(string_of_int i) ~name:"tri"
                 ~params:[ ("n", 6 + (i mod 7)) ]
                 ~mode:(if i mod 2 = 0 then Proto.Run else Proto.Classify)
                 (Proto.Src base_src)))
      in
      Service.shutdown svc;
      Alcotest.(check bool) "all ok" true (List.for_all Proto.ok resps);
      Alcotest.(check int)
        (Printf.sprintf "threads=%d: spawned = config.domains" threads)
        3
        (Obs.Counter.value spawned - s0))
    [ 1; 2; 4 ]

(* Shutting one service down withdraws only its own DNF runner: the other,
   still live, keeps running its set algebra on its pool, in either
   shutdown order.  Cold memo tables make the classify really eliminate
   coupled_skew2d's ≥ 4 disjuncts in parallel. *)
let test_dnf_runner_ownership () =
  let runs = Obs.Counter.make "runtime.workers.runs" in
  let prog = List.assoc "coupled_skew2d" Loopir.Builtin.corpus in
  let req =
    Proto.request ~id:"skew" ~name:"skew" ~mode:Proto.Classify
      ~params:(List.map (fun p -> (p, 8)) prog.Loopir.Ast.params)
      (Proto.Prog prog)
  in
  List.iter
    (fun first_down ->
      let a = Service.create ~config:(quiet_config ~domains:2) () in
      let b = Service.create ~config:(quiet_config ~domains:2) () in
      let down, live = if first_down then (a, b) else (b, a) in
      Service.shutdown down;
      Presburger.Hc.clear_all ();
      let r0 = Obs.Counter.value runs in
      Alcotest.(check bool) "classify ok" true (Proto.ok (Service.run_one live req));
      Alcotest.(check bool) "live pool runs DNF jobs" true
        (Obs.Counter.value runs > r0);
      Service.shutdown live)
    [ true; false ]

(* Four nests, eight copies each, at 1, 2 and 4 domains.  The cold pass
   answers every request; sequentially, every copy after the first hits.
   A warm re-run of the same batch must hit every request, whatever the
   domain count. *)
let test_service_duplicate_hits () =
  let nests =
    [
      ("example1", Loopir.Builtin.example1);
      ("fig2", Loopir.Builtin.fig2);
      ("example2", Loopir.Builtin.example2);
      ("example3", Loopir.Builtin.example3);
    ]
  in
  let requests =
    List.concat_map
      (fun copy ->
        List.map
          (fun (name, prog) ->
            Proto.request
              ~id:(Printf.sprintf "%s#%d" name copy)
              ~name
              ~params:(List.map (fun p -> (p, 8)) prog.Loopir.Ast.params)
              ~mode:Proto.Classify (Proto.Prog prog))
          nests)
      (List.init 8 Fun.id)
  in
  List.iter
    (fun domains ->
      let svc = Service.create ~config:(quiet_config ~domains) () in
      let pass () =
        let before = Service.cache_stats svc in
        let responses = Service.batch svc requests in
        let after = Service.cache_stats svc in
        (responses, after.Lru.hits - before.Lru.hits)
      in
      let cold, cold_hits = pass () in
      let warm, warm_hits = pass () in
      Service.shutdown svc;
      let at what = Printf.sprintf "%s at %d domain(s)" what domains in
      List.iter
        (fun responses ->
          Alcotest.(check int) (at "one response per request") 32
            (List.length responses);
          List.iter
            (fun (r : Proto.response) ->
              Alcotest.(check bool) (at (r.Proto.id ^ " ok")) true (Proto.ok r))
            responses)
        [ cold; warm ];
      if domains = 1 then
        Alcotest.(check int) (at "seven copies of each nest hit") 28 cold_hits;
      Alcotest.(check int) (at "warm re-run hits every request") 32 warm_hits;
      Alcotest.(check int) (at "warm responses marked cached") 32
        (List.length (List.filter (fun r -> r.Proto.cached) warm)))
    [ 1; 2; 4 ]

let test_service_error_isolation () =
  let svc = Service.create ~config:(quiet_config ~domains:2) () in
  let good =
    Proto.request ~id:"good" ~name:"good" ~params:[ ("n", 8) ]
      ~mode:Proto.Classify (Proto.Src base_src)
  in
  let bad =
    Proto.request ~id:"bad" ~name:"bad" ~mode:Proto.Classify
      (Proto.Src "DO i = 1, n\n  oops oops(\nENDDO")
  in
  let unbound =
    (* params missing the nest's symbolic bound *)
    Proto.request ~id:"unbound" ~name:"unbound" ~params:[]
      ~mode:Proto.Classify (Proto.Src base_src)
  in
  let responses = Service.batch svc [ good; bad; unbound ] in
  Service.shutdown svc;
  match responses with
  | [ g; b; u ] ->
      Alcotest.(check bool) "good succeeded" true (Proto.ok g);
      (match b.Proto.body with
      | Proto.Failed (Proto.Bad_request _) -> ()
      | _ -> Alcotest.fail "parse failure should be a bad-request record");
      (match u.Proto.body with
      | Proto.Failed (Proto.Pipeline_error { label; _ }) ->
          Alcotest.(check string)
            "unbound parameter surfaces its label" "unbound-parameter" label
      | _ -> Alcotest.fail "unbound parameter should be a pipeline error")
  | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs)

let test_service_deadline () =
  let svc = Service.create ~config:(quiet_config ~domains:1) () in
  let req =
    Proto.request ~id:"late" ~name:"late" ~params:[ ("n", 8) ]
      ~deadline_s:0.0 (Proto.Src base_src)
  in
  let r = Service.run_one svc req in
  Service.shutdown svc;
  match r.Proto.body with
  | Proto.Failed (Proto.Deadline { limit_s; elapsed_s }) ->
      Alcotest.(check (float 0.0)) "limit echoed" 0.0 limit_s;
      Alcotest.(check bool) "elapsed recorded" true (elapsed_s >= 0.0)
  | _ -> Alcotest.fail "zero deadline should fail with a deadline record"

(* ------------------------------------------------------------------ *)
(* Telemetry ops and request tracing                                    *)

let classify_corpus ~copies =
  List.concat_map
    (fun copy ->
      List.map
        (fun (name, prog) ->
          Proto.request
            ~id:(Printf.sprintf "%s#%d" name copy)
            ~name
            ~params:(List.map (fun p -> (p, 8)) prog.Loopir.Ast.params)
            ~mode:Proto.Classify (Proto.Prog prog))
        [
          ("example1", Loopir.Builtin.example1);
          ("fig2", Loopir.Builtin.fig2);
        ])
    (List.init copies Fun.id)

(* A batch ending in a metrics op: the op is answered after the pooled
   analysis drains, so its snapshot must already show this batch's cache
   hits, and both renderings must be well-formed. *)
let test_service_metrics_op () =
  let svc = Service.create ~config:(quiet_config ~domains:2) () in
  let metrics_req = Proto.request ~id:"m0" ~mode:Proto.Metrics ~name:"metrics" (Proto.Src "") in
  let responses = Service.batch svc (classify_corpus ~copies:3 @ [ metrics_req ]) in
  Service.shutdown svc;
  let m =
    match List.rev responses with
    | last :: _ -> last
    | [] -> Alcotest.fail "no responses"
  in
  Alcotest.(check string) "metrics response id" "m0" m.Proto.id;
  Alcotest.(check bool) "metrics response traced" true (m.Proto.trace <> "");
  match m.Proto.body with
  | Proto.Stats { prometheus; snapshot } ->
      let contains sub s =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        "prometheus names sanitized" true
        (contains "recpart_svc_cache_results_hits" prometheus);
      (match snapshot with
      | Pipeline.Json.Obj fields -> (
          match List.assoc_opt "counters" fields with
          | Some (Pipeline.Json.Obj counters) -> (
              match List.assoc_opt "svc.cache.results.hits" counters with
              | Some (Pipeline.Json.Int hits) ->
                  Alcotest.(check bool)
                    "duplicate-heavy batch shows cache hits" true (hits > 0)
              | _ -> Alcotest.fail "svc.cache.results.hits missing")
          | _ -> Alcotest.fail "counters block missing")
      | _ -> Alcotest.fail "snapshot is not an object");
      (* the wire form of the response must itself parse *)
      (match Pipeline.Json.parse (Proto.response_to_line m) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "metrics response line: %s" e)
  | _ -> Alcotest.fail "metrics op should answer with Stats"

let test_service_health_op () =
  let svc = Service.create ~config:(quiet_config ~domains:2) () in
  let r =
    Service.run_one svc
      (Proto.request ~id:"h0" ~mode:Proto.Health ~name:"health" (Proto.Src ""))
  in
  Service.shutdown svc;
  match r.Proto.body with
  | Proto.Healthy { ok; detail } ->
      Alcotest.(check bool) "freshly created service is healthy" true ok;
      (match detail with
      | Pipeline.Json.Obj fields ->
          List.iter
            (fun key ->
              Alcotest.(check bool) (key ^ " block present") true
                (List.mem_assoc key fields))
            [ "pool"; "cache"; "windows" ]
      | _ -> Alcotest.fail "health detail is not an object")
  | _ -> Alcotest.fail "health op should answer with Healthy"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A deadline-failed request must leave a flight-recorder postmortem
   containing its id and trace id. *)
let test_service_deadline_flight_dump () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "recpart-test-flight"
  in
  rm_rf dir;
  let config = { (quiet_config ~domains:1) with flight_dir = Some dir } in
  let svc = Service.create ~config () in
  let r =
    Service.run_one svc
      (Proto.request ~id:"late" ~name:"late" ~params:[ ("n", 8) ]
         ~deadline_s:0.0 (Proto.Src base_src))
  in
  Service.shutdown svc;
  (match r.Proto.body with
  | Proto.Failed (Proto.Deadline _) -> ()
  | _ -> Alcotest.fail "zero deadline should fail with a deadline record");
  Alcotest.(check bool) "response traced" true (r.Proto.trace <> "");
  let dumps =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f >= 7 && String.sub f 0 7 = "flight-")
  in
  (match dumps with
  | [ file ] ->
      let ic = open_in (Filename.concat dir file) in
      let len = in_channel_length ic in
      let content = really_input_string ic len in
      close_in ic;
      let contains sub s =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "dump names the request" true
        (contains "late" file);
      Alcotest.(check bool) "dump carries the trace id" true
        (contains r.Proto.trace content);
      Alcotest.(check bool) "dump records the failure kind" true
        (contains "deadline" content)
  | files ->
      Alcotest.failf "expected exactly one flight dump, found %d"
        (List.length files));
  rm_rf dir

(* Every service span recorded during a pooled batch must carry the
   originating request's trace id — including the ones that ran on pool
   worker domains, which is where the Ctx propagation could break. *)
let test_service_spans_carry_req () =
  let sink = Obs.Sink.make () in
  let config = { (quiet_config ~domains:2) with sink } in
  let svc = Service.create ~config () in
  let responses = Service.batch svc (classify_corpus ~copies:2) in
  Service.shutdown svc;
  let traces =
    List.filter_map
      (fun (r : Proto.response) ->
        if r.Proto.trace = "" then None else Some r.Proto.trace)
      responses
  in
  Alcotest.(check int) "every response traced" (List.length responses)
    (List.length traces);
  let svc_spans =
    List.filter
      (fun (s : Obs.Sink.span) ->
        String.length s.Obs.Sink.name >= 4
        && String.sub s.Obs.Sink.name 0 4 = "svc:")
      (Obs.Sink.spans sink)
  in
  Alcotest.(check bool) "batch recorded service spans" true (svc_spans <> []);
  let main_tid = (Domain.self () :> int) in
  let off_main = ref false in
  List.iter
    (fun (s : Obs.Sink.span) ->
      match List.assoc_opt "req" s.Obs.Sink.args with
      | None -> Alcotest.failf "span %s lost its request id" s.Obs.Sink.name
      | Some req ->
          if s.Obs.Sink.tid <> main_tid then off_main := true;
          Alcotest.(check bool)
            (Printf.sprintf "span %s req is a batch trace" s.Obs.Sink.name)
            true (List.mem req traces))
    svc_spans;
  Alcotest.(check bool) "spans ran on pool worker domains" true !off_main

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "svc"
    [
      ( "key",
        [
          Alcotest.test_case "whitespace and comments" `Quick
            test_key_whitespace_comments;
          Alcotest.test_case "alpha renaming" `Quick test_key_alpha_renaming;
          Alcotest.test_case "params and strategy" `Quick
            test_key_params_and_strategy;
          Alcotest.test_case "determinism regression" `Quick
            test_key_determinism;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction order" `Quick
            (fun () -> Lru_cases.lru_order svc_cache);
          Alcotest.test_case "capacity bound" `Quick
            (on_both_lrus Lru_cases.capacity_bound);
          Alcotest.test_case "4-domain consistency" `Quick
            (on_both_lrus Lru_cases.concurrent);
        ] );
      ( "pool",
        [
          Alcotest.test_case "shutdown drains queue" `Quick
            test_pool_shutdown_drains;
          Alcotest.test_case "panic isolation" `Quick
            test_pool_panic_isolation;
          Alcotest.test_case "pool of 1 = sequential" `Quick
            test_pool_of_one_sequential;
          Alcotest.test_case "spawns config.domains, once" `Quick
            test_service_spawns_domains;
          Alcotest.test_case "dnf runner ownership" `Quick
            test_dnf_runner_ownership;
        ] );
      ( "proto",
        [
          Alcotest.test_case "jsonl round trip" `Quick test_proto_round_trip;
          Alcotest.test_case "malformed lines" `Quick
            test_proto_malformed_lines;
        ] );
      ( "service",
        [
          Alcotest.test_case "duplicate requests hit cache" `Quick
            test_service_duplicate_hits;
          Alcotest.test_case "error isolation" `Quick
            test_service_error_isolation;
          Alcotest.test_case "deadline" `Quick test_service_deadline;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics op over a batch" `Quick
            test_service_metrics_op;
          Alcotest.test_case "health op" `Quick test_service_health_op;
          Alcotest.test_case "deadline leaves a flight dump" `Quick
            test_service_deadline_flight_dump;
          Alcotest.test_case "spans carry the request trace" `Quick
            test_service_spans_carry_req;
        ] );
    ]
