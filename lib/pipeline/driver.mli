(** The pipeline driver: one API for the full flow

    {v analyze → classify → materialize → schedule → validate → execute v}

    Each stage is exposed separately (for frontends that stop early, like
    [recpart partition] or [recpart codegen]) and {!run} composes all of
    them with per-stage wall-time instrumentation, producing a
    {!Report.t}.  Failures are structured ({!Diag.error}) and tagged with
    the stage that produced them — no [failwith] strings. *)

(** A plan bound to concrete loop-bound parameters. *)
type materialized =
  | Rec of {
      rp : Core.Partition.rec_plan;
      c : Core.Partition.concrete_rec;
    }  (** concrete three-set partition + chains *)
  | Fronts of Core.Dataflow.concrete
      (** successive dataflow fronts over the exact instance graph *)
  | Tasks of { sched : Runtime.Sched.t }
      (** strategies that directly produce a phase schedule (PDM cosets,
          unique-set regions, mindist tiles) *)
  | Model of { tr : Depend.Trace.t }
      (** simulation-only strategies (DOACROSS) *)

type error = {
  stage : Diag.stage;  (** the stage that failed *)
  error : Diag.error;
  timings : (string * float) list;
      (** wall seconds of every stage that ran, in pipeline order and
          including the failing stage itself — so a failing run still
          reports where time went *)
}

val error_to_string : error -> string

(* ---- individual stages ---------------------------------------------- *)

val analyze :
  Loopir.Ast.program -> (Depend.Solve.simple, Diag.error) result
(** Exact dependence analysis of a single-statement perfect nest. *)

val classify :
  ?strategy:Plan.strategy ->
  Loopir.Ast.program ->
  (Plan.t, Diag.error) result
(** Algorithm 1 strategy selection, or a forced strategy. *)

val materialize :
  Plan.t ->
  prog:Loopir.Ast.program ->
  params:(string * int) list ->
  (materialized, Diag.error) result
(** Binds loop-bound parameters and builds the concrete partition.  Checks
    that every program parameter is bound ([Unbound_parameter]). *)

val schedule : materialized -> (Runtime.Sched.t, Diag.error) result
(** The executable phase/barrier schedule; [Error Unsupported] for
    model-only strategies (DOACROSS). *)

val codegen :
  Plan.t -> prog:Loopir.Ast.program -> (string, Diag.error) result
(** The pseudo-Fortran listing for plans that have one (REC, dataflow). *)

val stats : materialized -> Report.partition_stats
(** Partition sizes, chain counts, front counts for the report. *)

(* ---- composed, instrumented run ------------------------------------- *)

type options = {
  threads : int;  (** domains for parallel execution (must be ≥ 1) *)
  check : bool;  (** verify legality + sequential equivalence *)
  measure : bool;  (** measure seq/parallel wall time *)
  strategy : Plan.strategy option;  (** [None] = Algorithm 1 selection *)
  exec_engine : Runtime.Exec.engine;
      (** schedule execution engine: [`Compiled] (default) runs closure-
          compiled kernels, [`Interp] the AST-walking interpreter (the
          cross-check engine).  Either way the executor sizes DOALL chunks
          from the cost model ([sim_cost] when given, otherwise
          {!Runtime.Sim.base_seconds}) and self-schedules chains
          longest-first *)
  workers : Runtime.Workers.t option;
      (** persistent executor pool to reuse across runs; [None] (the
          default) lets each run create and shut down a transient pool *)
  sim_cost : Runtime.Sim.cost option;
      (** cost-model constants for the pre-execution prediction
          ({!Report.prediction}); [None] (the default) predicts with the
          uncalibrated {!Runtime.Sim.base_seconds}, [Some c] uses
          calibrated constants (see {!Runtime.Sim.calibrate}) and tags the
          report's prediction block ["calibrated"] *)
  sink : Obs.Sink.t;
      (** where stage/execution spans go; {!Obs.Sink.null} (the default)
          records nothing and costs one branch per span site *)
  events : Obs.Event.t;
      (** where decision-provenance events go (installed as the ambient
          {!Obs.Event} log for the duration of {!run}); {!Obs.Event.null}
          (the default) records nothing *)
}

val default_options : options
(** 4 threads, check and measure on, automatic strategy, compiled engine,
    no-op sink, no-op event log. *)

type outcome = {
  plan : Plan.t;
  concrete : materialized;
  sched : Runtime.Sched.t option;  (** [None] for model-only strategies *)
  report : Report.t;
}

val run :
  ?options:options ->
  name:string ->
  params:(string * int) list ->
  Loopir.Ast.program ->
  (outcome, error) result
(** The whole pipeline on one program.  When [options.check] is set, the
    schedule is validated against the exact instance graph
    ({!Runtime.Sched.check_legal}) and executed on domains with the result
    compared to the sequential interpreter; check failures are reported in
    {!Report.t} (the pipeline itself still succeeds — an [Error] means a
    stage could not run at all). *)
