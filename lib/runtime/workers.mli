(** The process's one domain pool — domains are spawned once and reused
    across every phase of a run, and, in the analysis service, across
    every request.

    It takes work through two queues:
    - {b barrier jobs} from {!run}, which executes its first thunk on the
      calling domain and then helps drain the barrier queue until its own
      jobs are done, so a pool of [domains = 1] spawns nothing and
      degenerates to sequential execution, and concurrent {!run} calls
      share one pool without starving each other;
    - {b admitted jobs} from {!submit}/{!try_submit}, a bounded queue of
      [unit -> unit] thunks that only helper domains execute (the
      service's requests).

    Helpers take barrier jobs first, and a {!run} caller waiting at its
    barrier drains barrier jobs only.  A parallel phase therefore never
    waits behind a whole queued request, and an admitted job may call
    {!run} itself: its parallel phase completes even while every other
    helper is busy with other admitted jobs.

    {!run} is a barrier: it returns only when all of its thunks have
    finished.  The first exception raised by any thunk is re-raised in the
    caller after the barrier.  An admitted job that raises does {e not}
    kill its helper: the exception is counted in
    ["runtime.workers.panics"] and logged as a [Warn] event.

    The pool is always-on instrumented through the {!Obs.Metrics}
    registries (naming convention [runtime.workers.*]): counters
    ["runtime.workers.jobs"] ({!run} thunks executed), ["…jobs_stolen"]
    (popped by a helper domain) and ["…jobs_caller"] (run by the
    submitting caller — its first thunk plus anything it drained), with
    [jobs = jobs_stolen + jobs_caller] on a quiescent pool; histograms
    ["runtime.workers.queue_wait_us"] (enqueue → dequeue latency per
    queued barrier job) and ["runtime.workers.barrier_wait_us"] (time a
    caller blocks at the completion barrier per {!run} that had to wait).
    Each observation is a few atomic adds, cheap enough for the execution
    hot path. *)

type t

exception Closed
(** Raised by {!submit} after {!shutdown} started. *)

val create : domains:int -> t
(** Spawns [domains - 1] helper domains ([domains ≥ 1]; the calling domain
    of {!run} is the remaining worker), with room for 64 admitted jobs.
    Each spawn increments the global ["runtime.workers.spawned"] counter.
    If a spawn fails (e.g. [Failure] at the runtime's domain limit), the
    helpers already spawned are shut down and joined before the exception
    is re-raised, so a failed [create] leaves no domain behind. *)

val serving : queue_capacity:int -> domains:int -> t
(** A pool for admitted jobs, as the analysis service uses it: spawns
    [domains] (≥ 1) helpers, since admitted jobs run on helpers only and
    their submitters do not participate, and bounds the admitted queue at
    [queue_capacity] (≥ 1) jobs.  [domains] jobs run at once; a job that
    calls {!run} is the participating caller of its own phases.  The
    service smoke test asserts the spawn count equals [domains], not the
    request count. *)

val domains : t -> int
(** The domains that execute the pool's jobs: its helpers, plus the
    participating caller for a {!create} pool. *)

val spawned : t -> int
(** Helper domains actually spawned. *)

val run : t -> (unit -> 'a) array -> 'a array
(** Executes the thunks (first one on the calling domain, the rest through
    the barrier queue), waits for all of them, and returns their results
    in order.  Safe to call concurrently from multiple domains, from
    inside an admitted job, and after {!shutdown} (the caller then drains
    its own jobs itself).

    The caller's {!Obs.Ctx} (if any) is captured and installed around
    every thunk, wherever it runs — spans and events emitted on helper
    domains keep the originating request's trace id. *)

val submit : t -> (unit -> unit) -> unit
(** Admit one job, blocking while the admitted queue is full.  The
    submitter's {!Obs.Ctx} (if any) is captured with the job and
    installed around it on the helper.  @raise Closed once {!shutdown}
    has been called. *)

val try_submit : t -> (unit -> unit) -> bool
(** Non-blocking {!submit}: [false] when the admitted queue is at
    capacity or the pool is shutting down.  The network server's
    load-shedding primitive. *)

val queue_capacity : t -> int

val queue_length : t -> int
(** Admitted jobs currently queued (point-in-time; the health op's
    headroom signal). *)

val alive : t -> bool
(** [true] while the pool admits work: not shut down and helpers
    running. *)

val install_dnf_runner : t -> unit
(** Registers this pool as [Presburger.Dnf]'s parallel job runner, so
    independent DNF-disjunct elimination shares the pool's domains.
    Process-global: the most recently installed pool that is still
    installed wins. *)

val uninstall_dnf_runner : t -> unit
(** Withdraws this pool's Dnf runner, and only this pool's: a runner
    another pool installed stays in place. *)

val shutdown : t -> unit
(** Stops admissions, lets the helpers drain both queues, and joins them;
    idempotent.  Submitters blocked on a full queue are released with
    {!Closed}. *)
