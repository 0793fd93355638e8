(** Persistent executor domain pool — domains are spawned once and reused
    across every phase of a run (and across requests when the pool is
    shared by the analysis service), replacing per-phase
    [Domain.spawn]/[join] with a queue hand-off and a completion barrier.

    The pool follows the [Svc.Pool] bounded-queue design (mutex + condition
    variables + job queue + drain-then-join shutdown) but adds
    caller participation: {!run} executes its first thunk on the calling
    domain and then helps drain the shared queue until its own jobs are
    done, so a pool of [domains = 1] spawns nothing and degenerates to
    sequential execution, and concurrent {!run} calls from several service
    workers share one pool without starving each other.  Jobs must not
    call {!run} themselves (no nesting).

    {!run} is a barrier: it returns only when all of its thunks have
    finished.  The first exception raised by any thunk is re-raised in the
    caller after the barrier.

    The pool is always-on instrumented through the {!Obs.Metrics}
    registries (naming convention [runtime.workers.*]): counters
    ["runtime.workers.jobs"] (thunks executed), ["…jobs_stolen"] (popped
    by a helper domain) and ["…jobs_caller"] (run by the submitting
    caller — its first thunk plus anything it drained), with
    [jobs = jobs_stolen + jobs_caller] on a quiescent pool; histograms
    ["runtime.workers.queue_wait_us"] (enqueue → dequeue latency per
    queued job) and ["runtime.workers.barrier_wait_us"] (time a caller
    blocks at the completion barrier per {!run} that had to wait).  Each
    observation is a few atomic adds, cheap enough for the execution hot
    path. *)

type t

val create : domains:int -> t
(** Spawns [domains - 1] helper domains ([domains ≥ 1]; the calling domain
    is the remaining worker).  Each spawn increments the global
    ["runtime.workers.spawned"] counter — the service smoke test asserts
    this stays equal to the pool size, not the request count.  If a spawn
    fails (e.g. [Failure] at the runtime's domain limit), the helpers
    already spawned are shut down and joined before the exception is
    re-raised, so a failed [create] leaves no domain behind. *)

val domains : t -> int
(** The configured size (helpers + the participating caller). *)

val spawned : t -> int
(** Helper domains actually spawned ([domains - 1]). *)

val run : t -> (unit -> 'a) array -> 'a array
(** Executes the thunks (first one on the calling domain, the rest through
    the pool queue), waits for all of them, and returns their results in
    order.  Safe to call concurrently from multiple domains; also safe
    after {!shutdown} (the caller then drains its own jobs itself).

    The caller's {!Obs.Ctx} (if any) is captured and installed around
    every thunk, wherever it runs — spans and events emitted on helper
    domains keep the originating request's trace id. *)

val install_dnf_runner : t -> unit
(** Registers this pool as [Presburger.Dnf]'s parallel job runner, so
    independent DNF-disjunct elimination shares the executor domains.
    Process-global: the last installed pool wins. *)

val uninstall_dnf_runner : unit -> unit
(** Clears the Dnf runner (set algebra falls back to sequential). *)

val shutdown : t -> unit
(** Signals the helpers to drain the queue and joins them; idempotent. *)
