(** Real multicore execution of a schedule on OCaml 5 domains — the second
    half of the testbed substitution: it independently validates that a
    schedule's parallel phases are race-free in practice (a legal schedule
    leaves the store identical to the sequential run) and provides
    wall-clock measurements.

    Three engines share one instrumented path.  [`Compiled] (default)
    runs each instance through {!Compile} kernels — closures with fused
    affine offsets, no per-instance allocation.  [`Bytecode] runs the
    flat-bytecode VM ({!Bytecode}): whole DOALL blocks and recurrence
    chains execute in a single tight dispatch loop over packed int work
    buffers, with no per-instance closure call, record traversal or
    boxing.  [`Interp] walks the AST via {!Interp.exec_instance}.
    {!Interp.run_sequential} remains the reference oracle for all three
    ({!check}).

    Phases are separated by barriers.  Within a phase, work is addressed
    as [(unit, offset, length)] chunks — descriptors over the phase's
    flat buffers, so chunk setup copies no instance data.  How chunks
    are shaped and driven is the {!chunking} policy:

    - [`Static]: the legacy schedule.  Equal-size DOALL blocks, one per
      domain; whole tasks dealt longest-first (LPT) into one bucket per
      domain.  Assignment is fixed before the phase starts.
    - [`Cost c] (default, with the calibrated {!Sim} cost model): DOALL
      blocks are sized cost-proportionally via {!Sim.doall_chunk_count}
      (several chunks per domain when per-chunk work dwarfs scheduling
      overhead), task chunks are sorted longest-first, and all domains
      drain one ordered queue through an atomic cursor — dynamic
      self-scheduling, so a straggling domain simply takes fewer chunks
      and per-barrier idle time shrinks.

    Both policies execute chunks of the same phase concurrently on a
    persistent {!Workers.t} pool: pass [?workers] to reuse one pool
    across many runs (the analysis service does), or let {!run_timed}
    create a transient pool — domains are then spawned once per run, not
    once per phase.

    All entry points accept any thread count: values ≤ 1 run sequentially
    on the calling domain (never raise), and only chunks that actually
    hold work are handed to the pool.

    Every run goes through one instrumented path ({!run_timed}); {!run},
    {!wall_time} and {!check} are thin views of it, and the pipeline layer
    turns the per-phase statistics into its report.  All timings come from
    {!Obs.Clock} (monotonic).  With a recording {!Obs.Sink.t}, each phase,
    per-domain bucket and chunk additionally becomes a span on the
    executing domain's timeline.  Per-chunk [task] spans carry the sample
    {!Obs.Critpath} consumes — [("phase", label)], [("chain", id)] (task
    phases; the REC chain index) or [("block", id)] (DOALL blocks), and
    [("len", points)] — so every barrier's straggler is attributable to
    a concrete chain or block. *)

type engine = [ `Bytecode | `Compiled | `Interp ]

val engine_name : engine -> string
(** ["bytecode"] / ["compiled"] / ["interp"] — used by reports and the
    service cache key. *)

type chunking = [ `Static | `Cost of Sim.cost ]

val chunking_name : chunking -> string
(** ["static"] / ["cost"]. *)

type phase_stat = {
  label : string;  (** the phase's {!Sched.phase_label} *)
  n_instances : int;  (** statement instances executed in the phase *)
  n_units : int;  (** non-empty chunks (DOALL) or tasks executed *)
  loads : int array;
      (** instances executed per domain (length = executing domain count
          for parallel runs, [[| n |]] for sequential runs) *)
  busy : float array;
      (** seconds each domain spent executing its chunks, aligned with
          [loads]; the gap to [seconds] is barrier idle time *)
  alloc : float array;
      (** words each domain allocated while executing its chunks
          ({!Obs.Gcstats} delta taken inside the domain), aligned with
          [busy] *)
  seconds : float;  (** wall time of the phase, barrier included *)
}

type timed = {
  store : Arrays.t;  (** final array store *)
  seconds : float;
      (** total wall time of the phases.  Excluded: store set-up (O(cells)
          seeding from the env's memoized shape after the first
          {!Interp.scan_bounds} on it; the [store] span), kernel
          compilation and bytecode work packing (the [compile] span) *)
  phase_stats : phase_stat list;  (** one entry per phase, in order *)
}

val run_timed :
  ?sink:Obs.Sink.t ->
  ?engine:engine ->
  ?chunking:chunking ->
  ?workers:Workers.t ->
  Interp.env ->
  threads:int ->
  Sched.t ->
  timed
(** Executes the schedule on [threads] domains (sequential on the calling
    domain when [threads ≤ 1]) and records per-phase wall time and
    per-domain load/busy time.  [engine] (default [`Compiled]) selects the
    execution engine; [chunking] (default [`Cost Sim.base_seconds])
    selects the chunk policy; [workers] (default: a transient pool created
    and shut down inside this call) supplies a persistent executor pool;
    [sink] (default {!Obs.Sink.null}) receives store/compile/phase/
    bucket/task spans when recording; the [store] span carries
    [("memo", "hit" | "miss")] — whether the env's shape was already
    memoized. *)

val run :
  ?engine:engine ->
  ?chunking:chunking ->
  Interp.env ->
  threads:int ->
  Sched.t ->
  Arrays.t
(** [run_timed]'s final store. *)

val check :
  ?engine:engine ->
  ?chunking:chunking ->
  Interp.env ->
  threads:int ->
  Sched.t ->
  (unit, string) result
(** Parallel run vs sequential interpreter run array equality. *)

val wall_time :
  ?engine:engine ->
  ?chunking:chunking ->
  Interp.env ->
  threads:int ->
  Sched.t ->
  float
(** Seconds for one parallel run (store setup excluded). *)

val thread_loads : timed -> threads:int -> int array
(** Total instances executed per domain across all phases — the bucket
    load balance statistic of the pipeline report.  Phases that used more
    executors than [threads] have the overflow folded into the last slot
    (nothing is dropped). *)

(**/**)

val doall_buckets : int -> 'a array -> 'a array list
(** Exposed for tests: legacy block distribution; thread counts ≤ 1
    (including negative) yield a single bucket, and empty buckets are
    dropped (an empty input yields no buckets at all). *)

val doall_chunks : chunks:int -> int -> (int * int) list
(** Exposed for tests: [(offset, length)] of each cost-proportional DOALL
    chunk — [chunks] clamped to [1 …​ n], ranges contiguous, complete and
    never empty. *)
