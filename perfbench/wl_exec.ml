(* exec-hot: only the executor runs in the timed loop.

   Set-up builds, per program, the analysis, the materialized partition
   and its schedule, the reference store (Interp.run_sequential) and the
   compiled-sequential baseline (Sched.sequential_of_trace of
   Depend.Trace.build: every instance in the original loop order), and
   creates one persistent two-domain Runtime.Workers pool.  A pass calls
   Runtime.Exec.run_timed, compiled engine and default chunking, on every
   program's schedule at t=1 and t=2 and on its baseline at t=1. *)

type item = {
  p : Paper.prog;
  env : Runtime.Interp.env;
  sched : Runtime.Sched.t;
  seq : Runtime.Sched.t;
  reference : Runtime.Arrays.t;
}

let setup_item log (p : Paper.prog) =
  let ok = Paper.ok_exn in
  let plan = ok "classify" (Pipeline.Driver.classify p.ast) in
  let m = ok "materialize" (Pipeline.Driver.materialize plan ~prog:p.ast ~params:p.params) in
  let sched = ok "schedule" (Pipeline.Driver.schedule m) in
  Check.note log ~what:(p.name ^ " set-up")
    (Check.facts p.pinned ~instances:(Some (Runtime.Sched.n_instances sched))
       (Pipeline.Driver.stats m));
  let seq = Runtime.Sched.sequential_of_trace (Depend.Trace.build p.ast ~params:p.params) in
  let env = Runtime.Interp.prepare p.ast ~params:p.params in
  { p; env; sched; seq; reference = Runtime.Interp.run_sequential env }

let setup log progs =
  let items = List.map (setup_item log) progs in
  (items, Runtime.Workers.create ~domains:2)

type calls = { item : item; t1 : Call.t; t2 : Call.t; sq : Call.t }

(* One pass; each store is compared with the reference right after its
   call, outside the call's timing. *)
let pass ?ledger ~calibs log workers items ~op =
  let t0 = Obs.Clock.now_ns () in
  let root = Option.map (fun l -> Ledger.root l ~op) ledger in
  let call item ~threads ~prefix s =
    let go () = Call.run ~workers item.env ~threads s in
    let c, store =
      match (ledger, root) with
      | Some l, Some r ->
          Ledger.with_ l r ~name:"runtime.exec_call" (fun sp ->
              let ((c, _) as r) = go () in
              Call.place l sp ~prefix (List.assoc item.p.name calibs) c;
              r)
      | _ -> go ()
    in
    let check () =
      Check.note log
        ~what:(Printf.sprintf "%s %s store" item.p.name prefix)
        (Check.store ~reference:item.reference store)
    in
    (match (ledger, root) with
    | Some l, Some r -> Ledger.with_ l r ~name:"bench.check" (fun _ -> check ())
    | _ -> check ());
    c
  in
  let calls =
    List.map
      (fun item ->
        let t1 = call item ~threads:1 ~prefix:"t1" item.sched in
        let t2 = call item ~threads:2 ~prefix:"t2" item.sched in
        let sq = call item ~threads:1 ~prefix:"seq" item.seq in
        { item; t1; t2; sq })
      items
  in
  (match (ledger, root) with
  | Some l, Some r -> Ledger.record l ~name:"pass" r ~stop_ns:(Obs.Clock.now_ns ())
  | _ -> ());
  (Obs.Clock.elapsed_s t0, calls)

let sum f calls = Stat.sum (List.map f calls)

let run ~progs ~seconds ~trace ~trace_path out log =
  (* Set-up three times, each from a cold symbolic memo and heap; the
     last one is kept. *)
  let setups = ref [] and kept = ref None in
  for _ = 1 to 3 do
    Option.iter (fun (_, w) -> Runtime.Workers.shutdown w) !kept;
    kept := None;
    Presburger.Hc.clear_all ();
    Gc.compact ();
    let t0 = Obs.Clock.now_ns () in
    let s = setup log progs in
    setups := Obs.Clock.elapsed_s t0 :: !setups;
    kept := Some s
  done;
  let items, workers = Option.get !kept in
  let ledger = if trace then Some (Ledger.create ()) else None in
  let calibs =
    if trace then List.map (fun it -> (it.p.name, Call.calibrate it.env)) items else []
  in
  let untraced = ref [] and traced = ref [] in
  let t_start = Obs.Clock.now_ns () in
  let n = ref 0 in
  (* at least four passes, so the median rejects outliers *)
  while !n < 4 || Obs.Clock.elapsed_s t_start < seconds do
    incr n;
    (* every pass starts from a collected heap, as the first one does *)
    Gc.compact ();
    untraced := pass ~calibs log workers items ~op:"" :: !untraced;
    if !n = 3 then Host.record_peak_rss out;
    if trace then begin
      Gc.compact ();
      traced :=
        pass ?ledger ~calibs log workers items ~op:(Printf.sprintf "pass-%d" !n)
        :: !traced
    end
  done;
  Runtime.Workers.shutdown workers;
  let passes = List.map snd !untraced in
  let np = List.length passes in
  let of_passes = Printf.sprintf "median of %d passes" np in
  let med f = Stat.median (List.map f passes) in
  let exec_call = List.map (sum (fun c -> c.t2.Call.wall)) passes in
  Out.set out "setup_s" (Stat.median !setups) ~note:"median of 3 set-ups";
  Out.set out "op_p50_ms" (Stat.ms (Stat.median exec_call))
    ~note:("Σ outside wall of the four t=2 run_timed calls, " ^ of_passes);
  let k2 = med (sum (fun c -> c.t2.kernel)) in
  let k1 = med (sum (fun c -> c.t1.kernel)) in
  let ks = med (sum (fun c -> c.sq.kernel)) in
  Out.set out "kernel_ms" (Stat.ms k2) ~note:("Σ run_timed seconds at t=2, " ^ of_passes);
  Out.set out "exec_call_ms" (Stat.ms (Stat.median exec_call)) ~note:of_passes;
  Out.set out "kernel_t2_ms" (Stat.ms k2) ~note:of_passes;
  Out.set out "kernel_t1_ms" (Stat.ms k1) ~note:of_passes;
  Out.set out "seq_kernel_ms" (Stat.ms ks)
    ~note:("compiled sequential code in the original loop order, " ^ of_passes);
  let speedup calls =
    Stat.geomean (List.map (fun c -> c.sq.kernel /. c.t2.kernel) calls)
  in
  Out.set out "speedup_t2" (med speedup)
    ~note:
      (Printf.sprintf "geomean of seq_kernel/kernel_t2, %s; last pass: %s" of_passes
         (String.concat ", "
            (List.map
               (fun c ->
                 Printf.sprintf "%s %.3f/%.3f ms" c.item.p.name
                   (Stat.ms c.sq.kernel) (Stat.ms c.t2.kernel))
               (List.hd passes))));
  List.iter
    (fun (metric, kind, t) ->
      Out.set out metric (Stat.ms (med (sum (fun c -> Call.seconds ~kind (t c))))) ~note:of_passes)
    [
      ("exec.t1.doall_ms", Call.Doall, fun c -> c.t1);
      ("exec.t2.doall_ms", Call.Doall, fun c -> c.t2);
      ("exec.t1.tasks_ms", Call.Tasks, fun c -> c.t1);
      ("exec.t2.tasks_ms", Call.Tasks, fun c -> c.t2);
    ];
  let busy2 = med (sum (fun c -> Call.busy c.t2)) in
  let wall2 = med (sum (fun c -> Call.seconds c.t2)) in
  Out.set out "exec.t2.idle_pct"
    (med (fun calls ->
         let b = sum (fun c -> Call.busy c.t2) calls in
         100.0 *. (1.0 -. (b /. (2.0 *. sum (fun c -> Call.seconds c.t2) calls)))))
    ~note:
      (Printf.sprintf "1 - Σbusy/(2·Σwall): Σbusy %.3f ms, Σwall %.3f ms (%s)"
         (Stat.ms busy2) (Stat.ms wall2) of_passes);
  Out.set out "exec.t2.units" (med (sum (fun c -> float_of_int (Call.units c.t2)))) ~note:of_passes;
  Out.set out "exec.barriers"
    (med (sum (fun c -> float_of_int (List.length c.t2.Call.phases))))
    ~note:"phases of the four t=2 schedules";
  Out.set out "exec.t1.alloc_kwords" (med (sum (fun c -> Call.alloc c.t1 /. 1e3))) ~note:of_passes;
  Out.set out "exec.t2.alloc_kwords" (med (sum (fun c -> Call.alloc c.t2 /. 1e3))) ~note:of_passes;
  match ledger with
  | None -> ()
  | Some l ->
      let nodes = Ledger.nodes l in
      let nt = Printf.sprintf "median of %d traced passes" (List.length !traced) in
      let layer metric span =
        Out.set out metric (Stat.median (Ledger.per_op_ms nodes ~name:span)) ~note:nt
      in
      layer "runtime.store_ms" "runtime.store";
      layer "runtime.compile_ms" "runtime.compile";
      Out.set out "unattributed_ms" (Stat.median (Ledger.unattributed_per_op nodes))
        ~note:("root self time per pass, " ^ nt);
      let tw = Stat.median (List.map fst !traced) in
      let uw = Stat.median (List.map fst !untraced) in
      Out.set out "trace_gap_pct" (100.0 *. (tw -. uw) /. uw)
        ~note:
          (Printf.sprintf "traced %.1f ms vs untraced %.1f ms per pass" (Stat.ms tw)
             (Stat.ms uw));
      Ledger.finish l ~path:trace_path log
