(* pipeline-rec / pipeline-cholesky: program text to a validated result.

   A pass starts from the programs' text, printed with Loopir.Pretty
   before the pass; each text is parsed and run through
   Pipeline.Driver.run with two threads, checking and measuring on and
   the automatic strategy.  Before every pass, outside its timing, the
   symbolic memo is cleared and the heap collected, so each pass pays
   what a fresh `recpart run` pays. *)

let threads = 2
let options = { Pipeline.Driver.default_options with threads }

(* The per-pass set-up: the input texts and a cold process state. *)
let prepare progs =
  let t0 = Obs.Clock.now_ns () in
  let texts =
    List.map (fun (p : Paper.prog) -> Loopir.Pretty.program_to_string p.ast) progs
  in
  Presburger.Hc.clear_all ();
  Gc.compact ();
  (texts, Obs.Clock.elapsed_s t0)

let check_report log (p : Paper.prog) (r : Pipeline.Report.t) =
  Check.note log ~what:p.name
    (Check.passed "legality" r.legality
    @ Check.passed "semantics" r.semantics
    @ Check.facts p.pinned ~instances:r.n_instances
        (Option.value r.stats ~default:Pipeline.Report.empty_stats))

(* One untraced pass: its wall, and each program's kernel seconds. *)
let pass log progs texts =
  let t0 = Obs.Clock.now_ns () in
  let outs =
    List.map2
      (fun (p : Paper.prog) txt ->
        match Loopir.Parser.parse ~name:p.name txt with
        | prog -> Ok (Pipeline.Driver.run ~options ~name:p.name ~params:p.params prog)
        | exception e -> Error (Printexc.to_string e))
      progs texts
  in
  let wall = Obs.Clock.elapsed_s t0 in
  let kernels =
    List.map2
      (fun (p : Paper.prog) -> function
        | Ok (Ok o) ->
            check_report log p o.Pipeline.Driver.report;
            Option.value o.report.par_seconds ~default:0.0
        | Ok (Error e) ->
            Check.note log ~what:p.name [ Pipeline.Driver.error_to_string e ];
            0.0
        | Error m ->
            Check.note log ~what:p.name [ m ];
            0.0)
      progs outs
  in
  (wall, kernels)

let omega_calls () =
  Option.value ~default:0
    (List.assoc_opt "omega.is_empty_calls" (Obs.Counter.snapshot ()))

let words_during f =
  let g0 = Obs.Gcstats.quick () in
  let r = f () in
  (r, Obs.Gcstats.(allocated_words (diff ~before:g0 ~after:(quick ()))))

type traced = {
  t_wall : float;
  omega : int;
  mat_words : float;
  trace_words : float;
  minor : int;
  major : int;
}

(* One traced pass, composed from the public stage calls with the same
   options and in the same order as Driver.run. *)
let traced_pass ledger ~calibs ~op log progs texts =
  let ok = Paper.ok_exn in
  let root = Ledger.root ledger ~op in
  let span name f = Ledger.with_ ledger root ~name f in
  let gc0 = Gc.quick_stat () in
  let omega = ref 0 and mat_words = ref 0.0 and trace_words = ref 0.0 in
  List.iter2
    (fun (p : Paper.prog) txt ->
      let errs =
        try
          let params = p.params in
          let prog = span "loopir.parse" (fun _ -> Loopir.Parser.parse ~name:p.name txt) in
          let c0 = omega_calls () in
          let plan =
            ok "classify" (span "pipeline.classify" (fun _ -> Pipeline.Driver.classify prog))
          in
          omega := !omega + (omega_calls () - c0);
          let m, w =
            span "core.materialize" (fun _ ->
                words_during (fun () -> Pipeline.Driver.materialize plan ~prog ~params))
          in
          mat_words := !mat_words +. w;
          let m = ok "materialize" m in
          let s = ok "schedule" (span "runtime.schedule" (fun _ -> Pipeline.Driver.schedule m)) in
          let tr, w =
            span "depend.trace" (fun _ ->
                words_during (fun () -> Depend.Trace.build prog ~params))
          in
          trace_words := !trace_words +. w;
          let legal = span "runtime.check_legal" (fun _ -> Runtime.Sched.check_legal s tr) in
          ignore
            (span "pipeline.predict" (fun _ ->
                 Pipeline.Strategy.predict ~cost:Runtime.Sim.base_seconds ~threads s));
          let env, seq =
            span "runtime.oracle" (fun _ ->
                let env = Runtime.Interp.prepare prog ~params in
                (env, Runtime.Interp.run_sequential env))
          in
          let store =
            span "runtime.exec_call" (fun sp ->
                let c, store = Call.run env ~threads s in
                Call.place ledger sp ~prefix:"t2" (List.assoc p.name calibs) c;
                store)
          in
          let same = span "runtime.compare" (fun _ -> Runtime.Arrays.equal seq store) in
          let stats = Pipeline.Driver.stats m in
          (match legal with Ok () -> [] | Error e -> [ "legality failed: " ^ e ])
          @ (if same then [] else [ "semantics failed: store differs" ])
          @ Check.facts p.pinned ~instances:(Some (Runtime.Sched.n_instances s)) stats
        with e -> [ Printexc.to_string e ]
      in
      Check.note log ~what:(p.name ^ " (traced)") errs)
    progs texts;
  Ledger.record ledger ~name:"pass" root ~stop_ns:(Obs.Clock.now_ns ());
  let gc1 = Gc.quick_stat () in
  {
    t_wall = Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) root.start_ns) *. 1e-9;
    omega = !omega;
    mat_words = !mat_words;
    trace_words = !trace_words;
    minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

let run ~progs ~seconds ~trace ~trace_path out log =
  let ledger = Ledger.create () in
  let calibs =
    if trace then
      List.map
        (fun (p : Paper.prog) ->
          (p.name, Call.calibrate (Runtime.Interp.prepare p.ast ~params:p.params)))
        progs
    else []
  in
  let setups = ref [] and walls = ref [] and kernels = ref [] and traced = ref [] in
  let t_start = Obs.Clock.now_ns () in
  let n = ref 0 in
  (* at least four passes, so the median rejects outliers *)
  while !n < 4 || Obs.Clock.elapsed_s t_start < seconds do
    incr n;
    (* set up ten times; only the first pays for the previous pass's
       garbage *)
    let texts = ref [] in
    for _ = 1 to 10 do
      let t, setup = prepare progs in
      texts := t;
      setups := setup :: !setups
    done;
    let texts = !texts in
    let wall, ks = pass log progs texts in
    walls := wall :: !walls;
    kernels := ks :: !kernels;
    if !n = 3 then Host.record_peak_rss out;
    if trace then begin
      let texts, _ = prepare progs in
      traced :=
        traced_pass ledger ~calibs ~op:(Printf.sprintf "pass-%d" !n) log progs texts
        :: !traced
    end
  done;
  let np = List.length !walls in
  let of_passes = Printf.sprintf "median of %d passes" np in
  Out.set out "setup_s" (Stat.median !setups)
    ~note:(Printf.sprintf "median of %d set-ups, ten before each pass" (List.length !setups));
  Out.set out "op_p50_ms" (Stat.ms (Stat.median !walls)) ~note:("one pass, " ^ of_passes);
  (* Σ over the programs of each one's median kernel: a program's t=2
     kernel varies by up to 2x from pass to pass, and the median of the
     per-pass sums lets those swings add up *)
  let per_program =
    List.init (List.length progs) (fun i -> List.map (fun ks -> List.nth ks i) !kernels)
  in
  Out.set out "kernel_ms"
    (Stat.ms (Stat.sum (List.map Stat.median per_program)))
    ~note:("Σ over the programs of the median par_seconds at t=2, " ^ of_passes);
  Out.set out "pipeline_s" (Stat.median !walls) ~note:of_passes;
  if trace then begin
    let nodes = Ledger.nodes ledger in
    let tr = !traced in
    let nt = Printf.sprintf "median of %d traced passes" (List.length tr) in
    let layer metric span =
      Out.set out metric (Stat.median (Ledger.per_op_ms nodes ~name:span)) ~note:nt
    in
    layer "loopir.parse_ms" "loopir.parse";
    layer "pipeline.classify_ms" "pipeline.classify";
    layer "core.materialize_ms" "core.materialize";
    layer "runtime.schedule_ms" "runtime.schedule";
    layer "pipeline.predict_ms" "pipeline.predict";
    layer "depend.trace_ms" "depend.trace";
    layer "runtime.check_legal_ms" "runtime.check_legal";
    layer "runtime.oracle_ms" "runtime.oracle";
    layer "runtime.compare_ms" "runtime.compare";
    layer "runtime.exec_call_ms" "runtime.exec_call";
    layer "runtime.store_ms" "runtime.store";
    layer "runtime.compile_ms" "runtime.compile";
    layer "exec.t2.doall_ms" "exec.t2.doall";
    layer "exec.t2.tasks_ms" "exec.t2.tasks";
    let med f = Stat.median (List.map f tr) in
    Out.set out "presburger.omega_calls" (med (fun t -> float_of_int t.omega)) ~note:nt;
    Out.set out "core.materialize_mwords" (med (fun t -> t.mat_words /. 1e6)) ~note:nt;
    Out.set out "depend.trace_mwords" (med (fun t -> t.trace_words /. 1e6)) ~note:nt;
    Out.set out "gc.minor" (med (fun t -> float_of_int t.minor)) ~note:nt;
    Out.set out "gc.major" (med (fun t -> float_of_int t.major)) ~note:nt;
    Out.set out "unattributed_ms" (Stat.median (Ledger.unattributed_per_op nodes))
      ~note:("root self time per pass, " ^ nt);
    let tw = med (fun t -> t.t_wall) and uw = Stat.median !walls in
    Out.set out "trace_gap_pct" (100.0 *. (tw -. uw) /. uw)
      ~note:(Printf.sprintf "traced %.1f ms vs untraced %.1f ms per pass" (Stat.ms tw) (Stat.ms uw));
    Ledger.finish ledger ~path:trace_path log
  end
