(* The benchmark's own checks, run before every measurement (and alone
   with --self-test).  Each failing check is a failed operation. *)

module Json = Pipeline.Json

let names () =
  let all = Out.e2e @ Out.per_layer in
  let bad = List.filter (fun (n, _) -> not (Out.name_ok n)) all in
  let dup =
    List.filter (fun (n, _) -> List.length (List.filter (fun (m, _) -> m = n) all) > 1) all
  in
  List.map (fun (n, _) -> "bad metric name " ^ n) bad
  @ List.map (fun (n, _) -> "duplicate metric name " ^ n) dup

(* BENCHMARK.json, when the run starts from a checkout's root, declares
   exactly the metrics this program emits. *)
let declared () =
  match In_channel.with_open_text "BENCHMARK.json" In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
      match Json.parse text with
      | Error e -> [ "BENCHMARK.json: " ^ e ]
      | Ok j ->
          let list k f =
            match Json.member k j with
            | Some (Json.List l) -> List.filter_map f l
            | _ -> []
          in
          let metric m =
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
            | _ -> None
          in
          let same what want got =
            if want = got then [] else [ "BENCHMARK.json " ^ what ^ " differ from the program's" ]
          in
          same "end_to_end metrics" Out.e2e (list "end_to_end" metric)
          @ same "per_layer metrics" Out.per_layer (list "per_layer" metric))

let stream () =
  let a = Gen.to_jsonl (Gen.stream ~seed:7 ~length:400) in
  let b = Gen.to_jsonl (Gen.stream ~seed:7 ~length:400) in
  let c = Gen.to_jsonl (Gen.stream ~seed:8 ~length:400) in
  (if String.equal a b then [] else [ "same seed, different request streams" ])
  @ if String.equal a c then [ "different seeds, same request stream" ] else []

let checker () =
  let env = Runtime.Interp.prepare Loopir.Builtin.example2 ~params:[ ("n", 8) ] in
  let reference = Runtime.Interp.run_sequential env in
  let store = Runtime.Interp.run_sequential env in
  let clean = Check.store ~reference store in
  (match Runtime.Arrays.arrays store with
  | name :: _ ->
      let v = Option.get (Runtime.Arrays.view store name) in
      v.Runtime.Arrays.v_data.(0) <- v.Runtime.Arrays.v_data.(0) +. 1.0
  | [] -> ());
  let corrupted = Check.store ~reference store in
  let stats = { Pipeline.Report.empty_stats with n_chains = Some 1_833 } in
  let right = Check.facts Paper.example2.pinned ~instances:(Some 90_000) stats in
  let wrong_chains =
    Check.facts Paper.example2.pinned ~instances:(Some 90_000)
      { stats with n_chains = Some 1_834 }
  in
  let wrong_instances = Check.facts Paper.example2.pinned ~instances:(Some 89_999) stats in
  List.concat
    [
      (if clean = [] then [] else [ "checker flags an identical store" ]);
      (if corrupted = [] then [ "checker misses a corrupted store" ] else []);
      (if right = [] then [] else [ "checker flags the pinned facts themselves" ]);
      (if wrong_chains = [] then [ "checker misses a wrong chain count" ] else []);
      (if wrong_instances = [] then [ "checker misses a wrong instance count" ] else []);
    ]

(* A root of 100 ns with a 60 ns child holding a 20 ns grandchild: rows
   unattributed 40, child 40, grandchild 20, summing to the wall.  A
   child that overruns its parent, and a span whose parent was never
   recorded, are flagged. *)
let ledger () =
  let tree ~child_ns ~orphan =
    let l = Ledger.create () in
    let root = Ledger.root l ~start_ns:1000L ~op:"t" in
    let child = Ledger.synth l root ~name:"child" ~start_ns:1010L ~dur_ns:child_ns in
    ignore (Ledger.synth l child ~name:"grandchild" ~start_ns:1020L ~dur_ns:20L);
    if orphan then
      ignore (Ledger.synth l (Ledger.root l ~op:"t") ~name:"orphan" ~start_ns:1030L ~dur_ns:5L);
    Ledger.record l ~name:"root" root ~stop_ns:1100L;
    Ledger.nodes l
  in
  let good = tree ~child_ns:60L ~orphan:false in
  let rows, wall = Ledger.rows good in
  let row k = List.assoc_opt k rows in
  List.concat
    [
      (if
         Ledger.problems good = []
         && wall = 100L
         && row Ledger.unattributed = Some 40L
         && row "child" = Some 40L
         && row "grandchild" = Some 20L
       then []
       else [ "ledger rows do not reconcile on a known tree" ]);
      (if Ledger.problems (tree ~child_ns:120L ~orphan:false) = [] then
         [ "ledger misses a child that overruns its parent" ]
       else []);
      (if Ledger.problems (tree ~child_ns:60L ~orphan:true) = [] then
         [ "ledger misses a span without a parent" ]
       else []);
    ]

(* svc-mix's reply check on hand-made replies: a run reply must carry
   legality and semantics "ok"; a failed check, which Report.check_json
   writes as {"failed": msg}, or a missing one is flagged; a classify
   reply without a report passes. *)
let svc_reply () =
  let flagged ~mode ?(cls = Gen.Fresh) report =
    let j =
      Pipeline.Json.Obj
        ([
           ("id", Pipeline.Json.Str "f1");
           ("status", Pipeline.Json.Str "ok");
           ("cached", Pipeline.Json.Bool (cls <> Gen.Fresh));
           ("strategy", Pipeline.Json.Str "rec");
         ]
        @ Option.fold ~none:[] ~some:(fun r -> [ ("report", Pipeline.Json.Obj r) ]) report)
    in
    let line = Pipeline.Json.to_string j in
    let s =
      {
        Wl_svc.item = { Gen.cls; id = "f1"; key = ("prefix_sum", [ ("n", 9) ], mode); line = "" };
        t_send = 0L;
        t_recv = 1L;
        reply = Ok (line, "");
        client = 1;
        root = None;
      }
    in
    fst (Wl_svc.reply_errors ~expect:(Some (Wl_svc.facts j)) s) <> []
  in
  let str v = Pipeline.Json.Str v in
  let failed = Pipeline.Json.Obj [ ("failed", str "x") ] in
  let run = Svc.Proto.Run and classify = Svc.Proto.Classify in
  List.concat
    [
      (if flagged ~mode:run (Some [ ("legality", str "ok"); ("semantics", str "ok") ]) then
         [ "reply check flags a passing run reply" ]
       else []);
      (if flagged ~mode:run (Some [ ("legality", str "ok"); ("semantics", failed) ]) then []
       else [ "reply check misses semantics {\"failed\": _}" ]);
      (if flagged ~mode:run (Some [ ("legality", failed); ("semantics", str "ok") ]) then []
       else [ "reply check misses legality {\"failed\": _}" ]);
      (if flagged ~mode:run (Some [ ("semantics", str "ok") ]) then []
       else [ "reply check misses a run reply without legality" ]);
      (if flagged ~mode:run None then [] else [ "reply check misses a run reply without a report" ]);
      (if flagged ~mode:run (Some [ ("legality", str "skipped"); ("semantics", str "skipped") ])
       then []
       else [ "reply check passes a run reply whose checks were skipped" ]);
      (if flagged ~mode:classify None then [ "reply check flags a classify reply" ] else []);
    ]

let run log =
  List.iter
    (fun (what, f) -> Check.note log ~what:("self-test " ^ what) (f ()))
    [
      ("metric names", names);
      ("BENCHMARK.json", declared);
      ("seeded stream", stream);
      ("checker", checker);
      ("ledger", ledger);
      ("svc reply check", svc_reply);
    ]
