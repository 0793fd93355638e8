(** The concurrent analysis service: {!Pipeline.Driver} behind a
    content-addressed result cache and a domain pool.

    Requests are keyed by {!Key.of_request} (canonicalized program +
    bindings + strategy + execution facets); a hit returns the cached
    plan/report payload without re-running any pipeline stage.  Worker
    errors are isolated per request: parse failures, typed pipeline
    errors, deadline overruns and unexpected exceptions all become error
    {e records} in the response stream — a batch never dies on one bad
    nest.

    Deadlines are cooperative: a request found expired when dequeued is
    failed without running, and one that finishes past its deadline has
    its (complete) result discarded in favor of a deadline error — a
    running pipeline stage is never interrupted mid-flight.

    Every request runs under an {!Obs.Ctx} (minted at submit, propagated
    through the pool and the executor domains), so all spans/events it
    causes carry its trace id, which is also stamped into the response.
    Failed requests (deadline/pipeline/panic) dump their flight-recorder
    history to [config.flight_dir]; {!Proto.Metrics}/{!Proto.Health}
    requests are answered inline from the [Obs] registries and the
    rolling {!Obs.Window} without touching the cache. *)

type config = {
  domains : int;  (** worker domains draining the queue *)
  queue_capacity : int;  (** bounded submit queue (backpressure) *)
  cache_capacity : int;  (** total cached results (see {!Cache.create}) *)
  cache_shards : int;
  threads : int;  (** default execution domains per request *)
  check : bool;  (** validate legality + sequential equivalence *)
  measure : bool;
  deadline_s : float option;  (** default per-request deadline *)
  exec_engine : Runtime.Exec.engine;
      (** schedule execution engine for [Run] requests — [`Compiled]
          (default) or the cross-check [`Interp].  Part of the cache key
          (the [exec=] facet), so results produced by different engines
          never alias even though they are bit-identical by
          construction. *)
  sink : Obs.Sink.t;  (** spans: submit→dequeue→analyze→respond *)
  events : Obs.Event.t;  (** decision + service lifecycle events *)
  slow_ms : float option;
      (** log any request slower than this to stderr with stage timings
          and the presburger-memo delta it caused *)
  flight : bool;  (** enable the {!Obs.Flight} recorder at {!create} *)
  flight_dir : string option;
      (** where failed requests (deadline/pipeline/panic) dump their
          flight-recorder JSONL postmortems; [None] = no dumps *)
  window_s : float;  (** aggregation window period (see {!Obs.Window}) *)
  windows : int;  (** retained windows *)
  store_dir : string option;
      (** durable second cache tier: a {!Store} opened under this
          directory at {!create} and attached below the in-memory
          {!Cache} (read-through / write-behind); [None] = memory only *)
  store_flush_every : int;
      (** write-behind threshold forwarded to {!Store.open_dir} *)
}

val default_config : config
(** 4 domains, queue 64, cache 512 over 8 shards, 2 threads, check and
    measure on, no deadline, compiled execution, no-op sink and event
    log; flight recorder on (no dump dir), no slow-request log, 60
    windows of 1s; no store. *)

type t

val create : ?config:config -> unit -> t
(** Spawns the worker pool (and opens the durable store when
    [config.store_dir] is set); call {!shutdown} when done. *)

val run_one : t -> Proto.request -> Proto.response
(** Process one request synchronously on the calling domain, sharing the
    service cache ([recpart serve]). *)

val batch : t -> Proto.request list -> Proto.response list
(** Submit every request to the pool and wait for all responses, in
    request order.  Duplicate (content-equal) requests hit the cache
    after the first completes. *)

type admission =
  | Accepted
  | Shed of { queue_depth : int; queue_capacity : int }
      (** the bounded pool queue was full; the request was {e not}
          enqueued and [k] will never be called *)

val submit : t -> Proto.request -> k:(Proto.response -> unit) -> admission
(** Asynchronous single-request admission for the network server.
    Introspective ops ({!Proto.Metrics}/{!Proto.Health}) are answered
    inline — [k] runs on the calling thread before [submit] returns.
    Run/Classify requests are handed to the pool without blocking: [k]
    fires later on a worker domain (so it must be thread-safe), or the
    call returns {!Shed} when the queue is at capacity — the server's
    load-shedding signal, rendered as a typed [overloaded] record.  [k]
    must not raise; an exception from it is counted as a pool panic. *)

val cache_stats : t -> Cache.stats

val store : t -> Store.t option
(** The durable tier, when [config.store_dir] was set. *)

val flush_store : t -> unit
(** Force the store's write-behind buffers to disk (no-op without a
    store).  The server calls this on graceful drain. *)

val pool_capacity : t -> int
val pool_queue_length : t -> int
(** Queue state for rendering {!Shed} into an [overloaded] record and
    for the health op's headroom signal. *)

val register_gauges : t -> (unit -> (string * float) list) -> unit
(** Add gauge providers sampled by the [metrics] op's export (the
    network server registers its connection/in-flight gauges here so
    [recpart metrics --connect] sees them). *)

val window : t -> Obs.Window.t
(** The service's rolling aggregation window (rolled from the request
    hot path; what the [metrics] op's windowed quantiles read). *)

val exec_pool : t -> Runtime.Workers.t
(** The persistent executor pool shared by every request's parallel
    phases — created once with [config.threads] domains at {!create}
    (its spawn count scales with the pool size, never with the request
    count). *)

val shutdown : t -> unit
(** Drain in-flight work, join the workers and shut the executor pool
    down.  Idempotent. *)
