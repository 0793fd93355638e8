let ( let* ) = Result.bind

type materialized =
  | Rec of {
      rp : Core.Partition.rec_plan;
      c : Core.Partition.concrete_rec;
    }
  | Fronts of Core.Dataflow.concrete
  | Tasks of { sched : Runtime.Sched.t }
  | Model of { tr : Depend.Trace.t }

type error = {
  stage : Diag.stage;
  error : Diag.error;
  timings : (string * float) list;
}

let error_to_string { stage; error; _ } =
  Printf.sprintf "%s: %s" (Diag.stage_name stage) (Diag.to_string error)

(* Runs [f], threading typed failures and the known library exceptions
   (symbolic blowup, dataflow step limit) into the result. *)
let guarded f =
  match f () with
  | v -> Ok v
  | exception Diag.Error e -> Error e
  | exception Presburger.Omega.Blowup m -> Error (Diag.Set_blowup m)
  | exception Core.Dataflow.Did_not_terminate n ->
      Error (Diag.Dataflow_step_limit n)
  | exception Invalid_argument m -> Error (Diag.Unsupported m)
  | exception Depend.Space.Unsupported m -> Error (Diag.Unsupported m)

(* ---- individual stages ---------------------------------------------- *)

let analyze = Strategy.analyze_simple

let classify ?strategy prog =
  match strategy with
  | None -> Strategy.auto prog
  | Some s ->
      let (module M : Strategy.S) = Strategy.find s in
      M.plan prog

let check_params prog ~params =
  List.iter
    (fun p ->
      if not (List.mem_assoc p params) then
        Diag.fail (Diag.Unbound_parameter p))
    prog.Loopir.Ast.params

let param_array ~names ~params =
  Array.map
    (fun n ->
      match List.assoc_opt n params with
      | Some v -> v
      | None -> Diag.fail (Diag.Unbound_parameter n))
    names

let materialize plan ~prog ~params =
  guarded (fun () ->
      check_params prog ~params;
      match plan with
      | Plan.Rec_chains rp ->
          let arr =
            param_array ~names:rp.Core.Partition.simple.Depend.Solve.params
              ~params
          in
          let c =
            match Core.Partition.materialize rp ~params:arr with
            | Ok c -> c
            | Error e -> Diag.fail e
          in
          Rec { rp; c }
      | Plan.Dataflow_fronts _ ->
          Fronts (Core.Dataflow.peel_concrete prog ~params)
      | Plan.Pdm_fallback { simple = Some a; _ } ->
          let arr = param_array ~names:a.Depend.Solve.params ~params in
          let pdm = Baselines.Pdm.of_simple a ~params:arr in
          let pts = Depend.Scan.iter_space a.Depend.Solve.stmt ~params in
          let stmt = a.Depend.Solve.stmt.Loopir.Prog.id in
          Tasks { sched = Baselines.Pdm.schedule pdm ~stmt pts }
      | Plan.Pdm_fallback { simple = None; _ } ->
          (* No single-statement summary to uniformize: fall back to the
             exact instance graph, like Algorithm 1 does for Cholesky. *)
          Fronts (Core.Dataflow.peel_concrete prog ~params)
      | Plan.Unique_sets { rp; u } ->
          let arr =
            param_array ~names:rp.Core.Partition.simple.Depend.Solve.params
              ~params
          in
          let stmt =
            rp.Core.Partition.simple.Depend.Solve.stmt.Loopir.Prog.id
          in
          Tasks { sched = Baselines.Unique.schedule u ~stmt ~params:arr }
      | Plan.Mindist_tiles { simple = a } ->
          let arr = param_array ~names:a.Depend.Solve.params ~params in
          let md = Baselines.Mindist.of_simple a ~params:arr in
          let pts = Depend.Scan.iter_space a.Depend.Solve.stmt ~params in
          let stmt = a.Depend.Solve.stmt.Loopir.Prog.id in
          Tasks { sched = Baselines.Mindist.schedule md ~stmt pts }
      | Plan.Doacross_model _ -> Model { tr = Depend.Trace.build prog ~params })

let schedule = function
  | Rec { rp; c } ->
      let stmt = rp.Core.Partition.simple.Depend.Solve.stmt.Loopir.Prog.id in
      Ok (Runtime.Sched.of_rec ~stmt c)
  | Fronts d -> Ok (Runtime.Sched.of_fronts d)
  | Tasks { sched } -> Ok sched
  | Model _ ->
      Error
        (Diag.Unsupported
           "DOACROSS is cost-model only: P/V synchronization has no \
            barrier schedule")

let codegen plan ~prog =
  match plan with
  | Plan.Rec_chains rp -> Ok (Codegen.Emit.rec_partitioning rp)
  | Plan.Dataflow_fronts _ ->
      let* a = Strategy.analyze_simple prog in
      guarded (fun () ->
          let fronts =
            Core.Dataflow.peel_symbolic ~phi:a.Depend.Solve.phi
              ~rd:a.Depend.Solve.rd ~max_steps:64
          in
          Codegen.Emit.dataflow_listing fronts
            ~names:a.Depend.Solve.iters)
  | p ->
      Error
        (Diag.Unsupported
           (Printf.sprintf "no code generator for the %s strategy"
              (Plan.strategy_name (Plan.strategy p))))

let stats = function
  | Rec { c; _ } ->
      let n_chains = Core.Chain.n_chains c.Core.Partition.chains in
      {
        Report.empty_stats with
        p1 = Some (Core.Points.length c.Core.Partition.p1_pts);
        p2 = Some (Core.Chain.total_points c.Core.Partition.chains);
        p3 = Some (Core.Points.length c.Core.Partition.p3_pts);
        n_chains = Some n_chains;
        longest_chain = Some c.Core.Partition.chains.Core.Chain.longest;
        growth = Some c.Core.Partition.growth;
        theorem_bound = c.Core.Partition.theorem_bound;
        n_tasks = Some n_chains;
      }
  | Fronts d -> { Report.empty_stats with n_fronts = Some d.Core.Dataflow.steps }
  | Tasks { sched } ->
      let n_tasks =
        List.fold_left
          (fun acc ph ->
            match ph with
            | Runtime.Sched.Tasks { tasks; _ } -> acc + Array.length tasks
            | Runtime.Sched.Doall _ -> acc)
          0 sched.Runtime.Sched.phases
      in
      {
        Report.empty_stats with
        n_tasks = (if n_tasks > 0 then Some n_tasks else None);
      }
  | Model _ -> Report.empty_stats

(* ---- composed, instrumented run ------------------------------------- *)

type options = {
  threads : int;
  check : bool;
  measure : bool;
  strategy : Plan.strategy option;
  exec_engine : Runtime.Exec.engine;
  workers : Runtime.Workers.t option;
  sim_cost : Runtime.Sim.cost option;
  sink : Obs.Sink.t;
  events : Obs.Event.t;
}

let default_options =
  {
    threads = 4;
    check = true;
    measure = true;
    strategy = None;
    exec_engine = `Compiled;
    workers = None;
    sim_cost = None;
    sink = Obs.Sink.null;
    events = Obs.Event.null;
  }

type outcome = {
  plan : Plan.t;
  concrete : materialized;
  sched : Runtime.Sched.t option;
  report : Report.t;
}

(* The executor pool of one run: the caller's, none when sequential, or a
   transient one.  Spawning fails at the runtime's domain limit;
   [Workers.create] then leaves no helper behind, and the run ends in a
   typed error instead of an exception. *)
let with_pool options f =
  match options.workers with
  | Some _ as workers -> f workers
  | None when options.threads <= 1 -> f None
  | None -> (
      match Runtime.Workers.create ~domains:options.threads with
      | exception Failure _ ->
          Diag.fail (Diag.Invalid_thread_count options.threads)
      | pool ->
          Fun.protect
            ~finally:(fun () -> Runtime.Workers.shutdown pool)
            (fun () -> f (Some pool)))

let run ?(options = default_options) ~name ~params prog =
  if options.threads <= 0 then
    Error
      {
        stage = Diag.Execute;
        error = Diag.Invalid_thread_count options.threads;
        timings = [];
      }
  else begin
    let sink = options.sink in
    let timings = ref [] in
    let gcs = ref [] in
    let timed label f =
      Obs.Span.with_ ~sink ~name:("stage:" ^ label) (fun () ->
          let gc0 = Obs.Gcstats.quick () in
          let t0 = Obs.Clock.now_ns () in
          let r = f () in
          timings := (label, Obs.Clock.elapsed_s t0) :: !timings;
          gcs :=
            (label, Obs.Gcstats.(diff ~before:gc0 ~after:(quick ())))
            :: !gcs;
          r)
    in
    (* Mid-pipeline failures keep the stage timings collected so far,
       including the failing stage's own duration (it ran to its typed
       Error). *)
    let at stage r =
      Result.map_error
        (fun error ->
          Obs.Event.emit ~scope:"pipeline" ~name:"stage.failed"
            ~severity:Obs.Event.Warn (fun () ->
              [
                ("stage", Obs.Event.Str (Diag.stage_name stage));
                ("error", Obs.Event.Str (Diag.to_string error));
              ]);
          { stage; error; timings = List.rev !timings })
        r
    in
    let metrics_before = Obs.Metrics.snapshot () in
    Obs.Sink.with_ambient sink @@ fun () ->
    Obs.Event.with_ambient options.events @@ fun () ->
    Obs.Span.with_ ~sink ~name:("run:" ^ name) @@ fun () ->
    let* plan =
      at Diag.Classify
        (timed "classify" (fun () -> classify ?strategy:options.strategy prog))
    in
    let* concrete =
      at Diag.Materialize
        (timed "materialize" (fun () -> materialize plan ~prog ~params))
    in
    let sched =
      match concrete with
      | Model _ -> None
      | m -> (
          match timed "schedule" (fun () -> schedule m) with
          | Ok s -> Some s
          | Error _ -> None)
    in
    (* Legality: replay the exact instance graph against the schedule. *)
    let* legality =
      match (sched, concrete) with
      | Some s, _ when options.check ->
          at Diag.Validate
            (guarded (fun () ->
                 timed "validate" (fun () ->
                     let tr = Depend.Trace.build prog ~params in
                     match Runtime.Sched.check_legal s tr with
                     | Ok () -> Report.Passed
                     | Error m -> Report.Failed m)))
      | _ -> Ok Report.Skipped
    in
    (* Predict before executing: the cost model is only useful if it is
       held to account against what the executor then measures. *)
    let predicted =
      match sched with
      | None -> None
      | Some s ->
          let cost, cost_source =
            match options.sim_cost with
            | Some c -> (c, "calibrated")
            | None -> (Runtime.Sim.base_seconds, "default")
          in
          Some (Strategy.predict ~cost ~threads:options.threads s, cost_source)
    in
    (* Execution: sequential ground truth + instrumented parallel run, or
       the DOACROSS cost model. *)
    let* ( semantics,
           seq_seconds,
           par_seconds,
           model_makespan,
           loads,
           profiles,
           balance ) =
      match (concrete, sched) with
      | Model { tr }, _ ->
          at Diag.Execute
            (guarded (fun () ->
                 let r =
                   timed "execute" (fun () ->
                       Baselines.Doacross.pipeline tr ~threads:options.threads
                         ~w_iter:1.0 ~delay_factor:0.5)
                 in
                 ( Report.Skipped,
                   None,
                   None,
                   Some r.Baselines.Doacross.makespan,
                   None,
                   [],
                   None )))
      | _, Some s when options.check || options.measure ->
          at Diag.Execute
            (guarded (fun () ->
                 timed "execute" (fun () ->
                     let env = Runtime.Interp.prepare prog ~params in
                     let t0 = Obs.Clock.now_ns () in
                     let seq =
                       Obs.Span.with_ ~sink ~name:"seq-interp" (fun () ->
                           Runtime.Interp.run_sequential env)
                     in
                     let seq_s = Obs.Clock.elapsed_s t0 in
                     let tmd =
                       with_pool options (fun workers ->
                           Runtime.Exec.run_timed ~sink
                             ~engine:options.exec_engine ?cost:options.sim_cost
                             ?workers env ~threads:options.threads s)
                     in
                     let semantics =
                       if not options.check then Report.Skipped
                       else if Runtime.Arrays.equal seq tmd.Runtime.Exec.store
                       then Report.Passed
                       else
                         Report.Failed
                           "parallel store differs from the sequential run"
                     in
                     let profiles =
                       List.map
                         (fun p ->
                           {
                             Report.label = p.Runtime.Exec.label;
                             instances = p.Runtime.Exec.n_instances;
                             units = p.Runtime.Exec.n_units;
                             seconds = p.Runtime.Exec.seconds;
                             busy_seconds =
                               Array.fold_left ( +. ) 0.0 p.Runtime.Exec.busy;
                             alloc_words =
                               Array.fold_left ( +. ) 0.0
                                 p.Runtime.Exec.alloc;
                           })
                         tmd.Runtime.Exec.phase_stats
                     in
                     let balance =
                       Report.balance_of_phases ~threads:options.threads
                         (List.map
                            (fun p ->
                              ( p.Runtime.Exec.label,
                                p.Runtime.Exec.busy,
                                p.Runtime.Exec.seconds ))
                            tmd.Runtime.Exec.phase_stats)
                     in
                     ( semantics,
                       Some seq_s,
                       Some tmd.Runtime.Exec.seconds,
                       None,
                       Some
                         (Runtime.Exec.thread_loads tmd
                            ~threads:options.threads),
                       profiles,
                       balance ))))
      | _ -> Ok (Report.Skipped, None, None, None, None, [], None)
    in
    let n_instances, n_phases =
      match (concrete, sched) with
      | Model { tr }, _ ->
          (Some (Array.length tr.Depend.Trace.instances), None)
      | _, Some s ->
          (Some (Runtime.Sched.n_instances s), Some (Runtime.Sched.n_phases s))
      | _ -> (None, None)
    in
    let prediction =
      match predicted with
      | None -> None
      | Some (per_phase_pred, cost_source) ->
          (* run_timed profiles phases positionally off the same schedule
             the prediction walked, so zip when the lengths agree. *)
          let actuals =
            if List.length profiles = List.length per_phase_pred then
              List.map
                (fun (p : Report.phase_profile) -> Some p.Report.seconds)
                profiles
            else List.map (fun _ -> None) per_phase_pred
          in
          let per_phase =
            List.map2
              (fun (lbl, pred) actual ->
                {
                  Report.p_label = lbl;
                  predicted_s = pred;
                  actual_s = actual;
                  p_rel_error =
                    Option.bind actual (fun a ->
                        Report.rel_error ~predicted:pred ~actual:a);
                })
              per_phase_pred actuals
          in
          let total_predicted_s =
            List.fold_left (fun acc (_, p) -> acc +. p) 0.0 per_phase_pred
          in
          let rel_error =
            Option.bind par_seconds (fun a ->
                Report.rel_error ~predicted:total_predicted_s ~actual:a)
          in
          Option.iter Runtime.Sim.observe_rel_error rel_error;
          Some
            {
              Report.cost_source;
              per_phase;
              total_predicted_s;
              total_actual_s = par_seconds;
              rel_error;
            }
    in
    let run_stats = stats concrete in
    (* Tick the gateable chain-vs-bound ratio inside the metrics window so
       per-run reports (and baseline gates) see it. *)
    (match (run_stats.Report.longest_chain, run_stats.Report.theorem_bound) with
    | Some measured, Some bound ->
        Obs.Critpath.observe_chain_ratio ~measured ~bound
    | _ -> ());
    let metrics =
      Obs.Metrics.diff ~before:metrics_before ~after:(Obs.Metrics.snapshot ())
    in
    let report =
      {
        Report.program = name;
        params;
        strategy = Plan.strategy_name (Plan.strategy plan);
        reason = Plan.reason plan;
        timings = List.rev !timings;
        n_instances;
        n_phases;
        stats = Some run_stats;
        threads = options.threads;
        legality;
        semantics;
        exec_engine =
          Option.map
            (fun _ -> Runtime.Exec.engine_name options.exec_engine)
            par_seconds;
        seq_seconds;
        par_seconds;
        model_makespan;
        thread_loads = loads;
        phases = profiles;
        balance;
        prediction;
        gc = List.rev !gcs;
        metrics = (if Obs.Metrics.is_empty metrics then None else Some metrics);
      }
    in
    Ok { plan; concrete; sched; report }
  end
