let spawned_counter = Obs.Counter.make "runtime.workers.spawned"
let runs_counter = Obs.Counter.make "runtime.workers.runs"
let panics_counter = Obs.Counter.make "runtime.workers.panics"

(* Per-domain job accounting: every executed [run] thunk is attributed to
   exactly one side — [jobs_stolen] when a helper domain popped it,
   [jobs_caller] when the submitting caller ran it (its own first thunk,
   or a queued job it drained while waiting) — so
   jobs = jobs_stolen + jobs_caller holds on a quiescent pool.  The
   histograms measure scheduling latency: [queue_wait_us] from a job's
   enqueue to its dequeue, [barrier_wait_us] the time a caller spends
   blocked at the completion barrier after running out of queued work. *)
let jobs_counter = Obs.Counter.make "runtime.workers.jobs"
let stolen_counter = Obs.Counter.make "runtime.workers.jobs_stolen"
let caller_counter = Obs.Counter.make "runtime.workers.jobs_caller"
let queue_wait_hist = Obs.Histogram.make "runtime.workers.queue_wait_us"
let barrier_wait_hist = Obs.Histogram.make "runtime.workers.barrier_wait_us"

let elapsed_us t0 =
  Int64.to_int (Int64.div (Int64.sub (Obs.Clock.now_ns ()) t0) 1000L)

exception Closed

type t = {
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  barrier : (unit -> unit) Queue.t;  (* [run]'s jobs, unbounded *)
  admitted : (Obs.Ctx.t option * (unit -> unit)) Queue.t;
      (* [submit]'s jobs with their submitter's context, bounded *)
  capacity : int;
  n_domains : int;
  n_spawned : int;
  dnf_runner : (unit -> unit) array -> unit;
      (* one closure per pool: its identity is what uninstall matches *)
  mutable closing : bool;
  mutable helpers : unit Domain.t list;
}

let domains t = t.n_domains
let spawned t = t.n_spawned
let queue_capacity t = t.capacity

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let queue_length t = locked t (fun () -> Queue.length t.admitted)
let alive t = locked t (fun () -> (not t.closing) && t.helpers <> [])

(* An admitted job runs under its submitter's context — installing [None]
   explicitly keeps a context-free job from inheriting the previous one's
   — and a raise is isolated to the job. *)
let run_admitted (ctx, job) =
  Obs.Ctx.with_opt ctx (fun () ->
      try job ()
      with e ->
        Obs.Counter.incr panics_counter;
        Obs.Event.emit ~severity:Obs.Event.Warn ~scope:"runtime"
          ~name:"workers.panic" (fun () ->
            [ ("exn", Obs.Event.Str (Printexc.to_string e)) ]))

(* Drain-then-exit helper: barrier jobs first, then admitted ones; keeps
   popping while either queue holds jobs, even after [closing] is set, so
   shutdown never drops a queued job. *)
let rec helper t =
  Mutex.lock t.m;
  while Queue.is_empty t.barrier && Queue.is_empty t.admitted && not t.closing
  do
    Condition.wait t.not_empty t.m
  done;
  if not (Queue.is_empty t.barrier) then begin
    let job = Queue.pop t.barrier in
    Mutex.unlock t.m;
    Obs.Counter.incr stolen_counter;
    job ();
    helper t
  end
  else if not (Queue.is_empty t.admitted) then begin
    let job = Queue.pop t.admitted in
    Condition.signal t.not_full;
    Mutex.unlock t.m;
    run_admitted job;
    helper t
  end
  else Mutex.unlock t.m

let shutdown t =
  Mutex.lock t.m;
  let first = not t.closing in
  t.closing <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.m;
  if first then begin
    List.iter Domain.join t.helpers;
    t.helpers <- []
  end

let run t thunks =
  Obs.Counter.incr runs_counter;
  let n = Array.length thunks in
  Obs.Counter.add jobs_counter n;
  if n = 0 then [||]
  else if n = 1 then begin
    Obs.Counter.incr caller_counter;
    [| thunks.(0) () |]
  end
  else begin
    let results = Array.make n None in
    (* Jobs handed to helper domains run under the submitter's request
       context, so spans/events they emit keep the originating trace id.
       (The caller's own thunk already runs with it installed.) *)
    let ctx = Obs.Ctx.current () in
    (* Always install (even [None]): the domain draining this job may be a
       caller from a concurrent [run] with its own context, which must not
       leak into someone else's thunk. *)
    let wrap f = Obs.Ctx.with_opt ctx f in
    (* Call-local barrier state: jobs of concurrent [run] calls share the
       pool queue but complete against their own counter. *)
    let cm = Mutex.create () in
    let all_done = Condition.create () in
    let remaining = ref (n - 1) in
    let error = ref None in
    let record_error e =
      Mutex.lock cm;
      if !error = None then error := Some e;
      Mutex.unlock cm
    in
    let enq_ns = Obs.Clock.now_ns () in
    let job i () =
      Obs.Histogram.observe queue_wait_hist (elapsed_us enq_ns);
      (match wrap (fun () -> results.(i) <- Some (thunks.(i) ())) with
      | () -> ()
      | exception e -> record_error e);
      Mutex.lock cm;
      decr remaining;
      if !remaining = 0 then Condition.broadcast all_done;
      Mutex.unlock cm
    in
    Mutex.lock t.m;
    for i = 1 to n - 1 do
      Queue.push (job i) t.barrier
    done;
    Condition.broadcast t.not_empty;
    Mutex.unlock t.m;
    (* The caller is a worker too: run the first thunk here, then help
       drain the queue until this call's jobs are all accounted for. *)
    Obs.Counter.incr caller_counter;
    (match thunks.(0) () with
    | v -> results.(0) <- Some v
    | exception e -> record_error e);
    let rec drain () =
      Mutex.lock cm;
      let pending = !remaining > 0 in
      Mutex.unlock cm;
      if pending then begin
        Mutex.lock t.m;
        (* Barrier jobs only: an admitted job (a whole request) must never
           run on a waiting caller's stack. *)
        let next =
          if Queue.is_empty t.barrier then None else Some (Queue.pop t.barrier)
        in
        Mutex.unlock t.m;
        match next with
        | Some j ->
            (* A drained job may belong to a concurrent [run]; it still
               ran on a submitting caller, not a pool helper. *)
            Obs.Counter.incr caller_counter;
            j ();
            drain ()
        | None ->
            (* Own jobs are in flight on other domains: wait them out. *)
            let w0 = Obs.Clock.now_ns () in
            Mutex.lock cm;
            while !remaining > 0 do
              Condition.wait all_done cm
            done;
            Mutex.unlock cm;
            Obs.Histogram.observe barrier_wait_hist (elapsed_us w0)
      end
    in
    drain ();
    (match !error with Some e -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

(* [block] waits out a full queue ([submit]); otherwise a full queue is
   the load-shedding signal ([try_submit]). *)
let admit t ~block job =
  if t.n_spawned = 0 then invalid_arg "Workers.submit: pool has no helpers";
  let entry = (Obs.Ctx.current (), job) in
  locked t (fun () ->
      while block && Queue.length t.admitted >= t.capacity && not t.closing do
        Condition.wait t.not_full t.m
      done;
      let ok = (not t.closing) && Queue.length t.admitted < t.capacity in
      if ok then begin
        Queue.push entry t.admitted;
        Condition.signal t.not_empty
      end;
      ok)

let submit t job = if not (admit t ~block:true job) then raise Closed
let try_submit t job = admit t ~block:false job

let make ~queue_capacity ~domains ~helpers =
  if domains < 1 then invalid_arg "Workers: domains must be >= 1";
  if queue_capacity < 1 then invalid_arg "Workers: queue_capacity must be >= 1";
  let rec t =
    {
      m = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      barrier = Queue.create ();
      admitted = Queue.create ();
      capacity = queue_capacity;
      n_domains = domains;
      n_spawned = helpers;
      dnf_runner = (fun jobs -> ignore (run t jobs));
      closing = false;
      helpers = [];
    }
  in
  (* A failed spawn (the runtime's domain limit, or memory) must not strand
     the helpers already spawned on [not_empty]: they would count against
     the limit for the rest of the process.  Close and join them, then
     re-raise. *)
  (try
     for _ = 1 to helpers do
       let d = Domain.spawn (fun () -> helper t) in
       Obs.Counter.incr spawned_counter;
       t.helpers <- d :: t.helpers
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     shutdown t;
     Printexc.raise_with_backtrace e bt);
  t

let create ~domains = make ~queue_capacity:64 ~domains ~helpers:(domains - 1)
let serving ~queue_capacity ~domains = make ~queue_capacity ~domains ~helpers:domains

(* The presburger layer sits below this one, so its parallel disjunct
   elimination receives the pool as an injected runner rather than a direct
   dependency.  [run] already satisfies Dnf's runner contract: barrier
   semantics, re-raise of the first job exception, concurrent callers. *)
let install_dnf_runner t = Presburger.Dnf.install_runner t.dnf_runner
let uninstall_dnf_runner t = Presburger.Dnf.release_runner t.dnf_runner
