(* Cross-library integration tests: full pipelines from source text to
   validated parallel execution, and consistency between the fast
   (scan/abstract) and exact (enumeration/concrete) paths. *)

module Partition = Core.Partition
module Sched = Runtime.Sched
module Interp = Runtime.Interp
module Sim = Runtime.Sim
module Ivec = Linalg.Ivec
module Driver = Pipeline.Driver
module Plan = Pipeline.Plan
module Report = Pipeline.Report

(* Strategy selection through the pipeline layer. *)
let rec_plan prog =
  match Driver.classify prog with
  | Ok (Plan.Rec_chains rp) -> Some rp
  | Ok _ | Error _ -> None

let rec_plan_exn prog =
  match rec_plan prog with
  | Some rp -> rp
  | None -> Alcotest.fail "REC expected"

(* ------------------------------------------------------------------ *)
(* Scan-based materialization agrees with enumeration-based             *)

let same_concrete (a : Partition.concrete_rec) (b : Partition.concrete_rec) =
  a.Partition.p1_pts = b.Partition.p1_pts
  && a.Partition.p3_pts = b.Partition.p3_pts
  && List.sort compare (Core.Chain.to_lists a.Partition.chains)
     = List.sort compare (Core.Chain.to_lists b.Partition.chains)
  && a.Partition.theorem_bound = b.Partition.theorem_bound

let test_scan_vs_enum_ex1 () =
  let rp = rec_plan_exn Loopir.Builtin.example1 in
  List.iter
    (fun (n1, n2) ->
      let a = Partition.materialize_rec rp ~params:[| n1; n2 |] in
      let b = Partition.materialize_rec_scan rp ~params:[| n1; n2 |] in
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d identical" n1 n2)
        true (same_concrete a b))
    [ (10, 10); (17, 23); (30, 40) ]

let test_scan_vs_enum_ex2 () =
  let rp = rec_plan_exn Loopir.Builtin.example2 in
  List.iter
    (fun n ->
      let a = Partition.materialize_rec rp ~params:[| n |] in
      let b = Partition.materialize_rec_scan rp ~params:[| n |] in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d identical" n)
        true (same_concrete a b))
    [ 8; 10; 12; 25 ]

let test_scan_iter_space () =
  (* Triangular nest: scan order and content match the exact enumerator. *)
  let prog =
    Loopir.Parser.parse ~name:"t"
      "DO i = 1, 6\n  DO j = i, MIN(6, i + 2)\n    a(i, j) = b(i, j)\n  ENDDO\nENDDO"
  in
  let a = Depend.Solve.analyze_simple prog in
  let scan = Depend.Scan.iter_space a.Depend.Solve.stmt ~params:[] in
  let enum = Presburger.Enum.points a.Depend.Solve.phi in
  Alcotest.(check bool) "same points in same order" true (scan = enum)

(* ------------------------------------------------------------------ *)
(* Abstract simulator agrees with the concrete one                       *)

let test_abstract_sim_consistent () =
  let rp = rec_plan_exn Loopir.Builtin.example1 in
  let c = Partition.materialize_rec rp ~params:[| 20; 30 |] in
  let sched = Sched.of_rec ~stmt:0 c in
  let a = Sim.abstract sched in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "threads=%d" p)
        (Sim.time Sim.base ~threads:p sched)
        (Sim.time_abstract Sim.base ~threads:p a))
    [ 1; 2; 3; 4; 7 ]

(* ------------------------------------------------------------------ *)
(* DOACROSS pipeline model sanity                                        *)

let test_doacross_pipeline () =
  let tr = Depend.Trace.build Loopir.Builtin.example3 ~params:[ ("n", 20) ] in
  let m ~p ~d =
    (Baselines.Doacross.pipeline tr ~threads:p ~w_iter:1.0 ~delay_factor:d)
      .Baselines.Doacross.makespan
  in
  (* Zero delay, many threads: bounded below by the largest stage. *)
  Alcotest.(check bool) "threads help" true (m ~p:4 ~d:0.5 <= m ~p:1 ~d:0.5);
  Alcotest.(check bool) "delay hurts" true (m ~p:4 ~d:1.0 >= m ~p:4 ~d:0.25);
  (* delay_factor 1 on unbounded threads = fully serialized by delays. *)
  let busy =
    (Baselines.Doacross.pipeline tr ~threads:64 ~w_iter:1.0 ~delay_factor:1.0)
      .Baselines.Doacross.busy
  in
  Alcotest.(check bool) "full delay ≈ serial" true (m ~p:64 ~d:1.0 >= 0.9 *. busy)

(* ------------------------------------------------------------------ *)
(* End-to-end on random coupled loops: semantics, not just legality      *)

let gen_coupled =
  QCheck2.Gen.(
    let* alpha = oneofl [ 1; 2; 3; -2 ] in
    let* beta = int_range 0 12 in
    let* gamma = oneofl [ 1; 2; -1; 3 ] in
    let* delta = int_range 0 12 in
    let* n = int_range 5 30 in
    pure (alpha, beta, gamma, delta, n))

let prop_e2e_semantics =
  QCheck2.Test.make ~name:"REC schedules preserve semantics (random 1-D)"
    ~count:60 gen_coupled (fun (alpha, beta, gamma, delta, n) ->
      let src =
        Printf.sprintf "DO i = 1, %d\n  a(%d*i + %d) = a(%d*i + %d) + 1.0\nENDDO"
          n alpha beta gamma delta
      in
      let prog = Loopir.Parser.parse ~name:"rand" src in
      match Driver.classify prog with
      | Ok (Plan.Rec_chains _ as plan) -> (
          match Driver.materialize plan ~prog ~params:[] with
          | Ok (Driver.Rec { c; _ }) -> (
              let sched = Sched.of_rec ~stmt:0 c in
              let env = Interp.prepare prog ~params:[] in
              match Interp.check_schedule env sched with
              | Ok () -> true
              | Error _ -> false)
          | Ok _ -> false
          | Error (Diag.Set_blowup _) -> true
          | Error _ -> false)
      | Ok _ | Error (Diag.Set_blowup _) -> true
      | Error _ -> false)

let prop_dataflow_semantics =
  QCheck2.Test.make ~name:"dataflow schedules preserve semantics (random 2-D)"
    ~count:25
    QCheck2.Gen.(
      let coef = int_range (-2) 2 in
      let* c1 = coef and* c2 = coef and* c3 = int_range 0 4 in
      let* d1 = coef and* d2 = coef and* d3 = int_range 0 4 in
      let* n = int_range 4 8 in
      pure (c1, c2, c3, d1, d2, d3, n))
    (fun (c1, c2, c3, d1, d2, d3, n) ->
      let src =
        Printf.sprintf
          "DO i = 1, %d\n\
          \  DO j = 1, %d\n\
          \    a(%d*i + %d*j + %d) = a(%d*i + %d*j + %d) + b(i, j)\n\
          \  ENDDO\nENDDO"
          n n c1 c2 c3 d1 d2 d3
      in
      let prog = Loopir.Parser.parse ~name:"rand2" src in
      let c = Core.Dataflow.peel_concrete prog ~params:[] in
      let sched = Sched.of_fronts c in
      let env = Interp.prepare prog ~params:[] in
      let tr = Depend.Trace.build prog ~params:[] in
      Sched.check_legal sched tr = Ok ()
      && Interp.check_schedule env sched = Ok ())

(* ------------------------------------------------------------------ *)
(* The paper pipeline end to end, one assertion per example              *)

let test_paper_pipeline () =
  (* example1: REC with exact three sets *)
  let rp = rec_plan_exn Loopir.Builtin.example1 in
  Alcotest.(check bool) "ex1 cover" true
    (Core.Threeset.check_cover rp.Partition.three
       ~phi:rp.Partition.simple.Depend.Solve.phi);
  (* example2 and cholesky end to end through Driver.run: legality checked
     against the exact instance graph, execution on domains compared to the
     sequential interpreter. *)
  let run name prog ~params ~threads =
    let options = { Driver.default_options with threads } in
    match Driver.run ~options ~name ~params prog with
    | Error e -> Alcotest.fail (name ^ ": " ^ Driver.error_to_string e)
    | Ok o ->
        Alcotest.(check string)
          (name ^ " legality") "ok"
          (Report.check_result_string o.Driver.report.Report.legality);
        Alcotest.(check string)
          (name ^ " semantics") "ok"
          (Report.check_result_string o.Driver.report.Report.semantics);
        o
  in
  let o2 =
    run "example2" Loopir.Builtin.example2 ~params:[ ("n", 20) ] ~threads:3
  in
  Alcotest.(check string)
    "ex2 strategy" "rec"
    o2.Driver.report.Report.strategy;
  let o4 =
    run "cholesky" Loopir.Builtin.cholesky
      ~params:[ ("nmat", 3); ("m", 2); ("n", 6); ("nrhs", 1) ]
      ~threads:2
  in
  Alcotest.(check string)
    "cholesky strategy" "pdm"
    o4.Driver.report.Report.strategy

let () =
  Alcotest.run "integration"
    [
      ( "consistency",
        [
          Alcotest.test_case "scan ≡ enum materialization (ex1)" `Quick
            test_scan_vs_enum_ex1;
          Alcotest.test_case "scan ≡ enum materialization (ex2)" `Quick
            test_scan_vs_enum_ex2;
          Alcotest.test_case "scan iter space" `Quick test_scan_iter_space;
          Alcotest.test_case "abstract ≡ concrete simulator" `Quick
            test_abstract_sim_consistent;
          Alcotest.test_case "doacross pipeline sanity" `Quick
            test_doacross_pipeline;
        ] );
      ( "end-to-end",
        [
          QCheck_alcotest.to_alcotest prop_e2e_semantics;
          QCheck_alcotest.to_alcotest prop_dataflow_semantics;
          Alcotest.test_case "paper pipeline" `Quick test_paper_pipeline;
        ] );
    ]
