(* Legacy block distribution, kept for tests: the execution path now
   addresses work as (unit, offset, length) chunks and never re-slices
   instance arrays. *)
let doall_buckets threads instances =
  let threads = max 1 threads in
  let n = Array.length instances in
  let size = (n + threads - 1) / threads in
  List.init threads (fun t ->
      let lo = t * size in
      let hi = min n (lo + size) in
      if lo >= hi then [||] else Array.sub instances lo (hi - lo))
  |> List.filter (fun b -> Array.length b > 0)

type engine = [ `Bytecode | `Compiled | `Interp ]

let engine_name = function
  | `Bytecode -> "bytecode"
  | `Compiled -> "compiled"
  | `Interp -> "interp"

type chunking = [ `Static | `Cost of Sim.cost ]

let chunking_name = function `Static -> "static" | `Cost _ -> "cost"

type phase_stat = {
  label : string;
  n_instances : int;
  n_units : int;
  loads : int array;
  busy : float array;
  alloc : float array;
  seconds : float;
}

type timed = { store : Arrays.t; seconds : float; phase_stats : phase_stat list }

let task_len_hist = Obs.Histogram.make "exec.task_len"
let task_ns_hist = Obs.Histogram.make "exec.task_ns"

(* ---- engine-agnostic phase runners ----------------------------------- *)

(* A chunk addresses a contiguous instance range of one work unit — a
   DOALL block ([c_unit] 0, [c_id] the block ordinal) or a whole
   sequential task ([c_unit] = [c_id] = the task index; for REC plans the
   recurrence-chain id, which the per-task spans carry so barrier
   stragglers stay attributable to a chain).  Chunks are descriptors over
   the phase's flat buffers: building them copies no instance data. *)
type chunk = { c_unit : int; c_id : int; c_off : int; c_len : int }

(* A phase prepared for execution.  [p_runner ()] yields this domain's
   range runner (the bytecode engine allocates a per-domain scratch stack
   here; closure engines return a shared closure). *)
type prepared = {
  p_kind : string;  (* "block" | "chain" — the span unit-id arg *)
  p_units : int array;  (* per-unit instance counts *)
  p_runner : unit -> int -> int -> int -> unit;  (* unit off len *)
}

let kind_of_phase = function
  | Sched.Doall _ -> "block"
  | Sched.Tasks _ -> "chain"

let prepared_of_exec (exec : Sched.instance -> unit) phase =
  match phase with
  | Sched.Doall { instances; _ } ->
      {
        p_kind = "block";
        p_units = [| Array.length instances |];
        p_runner =
          (fun () _u off len ->
            for i = off to off + len - 1 do
              exec instances.(i)
            done);
      }
  | Sched.Tasks { tasks; _ } ->
      {
        p_kind = "chain";
        p_units = Array.map Array.length tasks;
        p_runner =
          (fun () u off len ->
            let t = tasks.(u) in
            for i = off to off + len - 1 do
              exec t.(i)
            done);
      }

(* ---- chunk building --------------------------------------------------- *)

(* [k] near-equal contiguous ranges over [n] DOALL instances (never an
   empty range: [k] is clamped to [n]). *)
let doall_chunk_ranges ~chunks n =
  let k = max 1 chunks in
  if n <= 0 then []
  else
    let k = min k n in
    List.init k (fun t ->
        let lo = t * n / k and hi = (t + 1) * n / k in
        { c_unit = 0; c_id = t; c_off = lo; c_len = hi - lo })

(* Longest-first LPT deal of whole-task chunks into [threads] buckets —
   the static schedule.  Buckets keep their chunks in longest-first
   order. *)
let lpt_deal threads chunks =
  let threads = max 1 threads in
  let order = Array.of_list chunks in
  Array.sort
    (fun a b ->
      let c = compare b.c_len a.c_len in
      if c <> 0 then c else compare a.c_id b.c_id)
    order;
  let buckets = Array.make threads [] in
  let loads = Array.make threads 0 in
  Array.iter
    (fun c ->
      let best = ref 0 in
      for k = 1 to threads - 1 do
        if loads.(k) < loads.(!best) then best := k
      done;
      buckets.(!best) <- c :: buckets.(!best);
      loads.(!best) <- loads.(!best) + c.c_len)
    order;
  Array.to_list (Array.map List.rev buckets)

(* How a phase's chunks are driven:
   - sequential runs execute them in order on the calling domain;
   - [`Static] pre-deals them into one bucket per domain (equal DOALL
     blocks, LPT for tasks) — the legacy schedule;
   - [`Cost] builds a single ordered queue (cost-proportional DOALL
     blocks sized by {!Sim.doall_chunk_count}; whole chains sorted
     longest-first) drained by all domains through one atomic cursor, so
     late-waking or straggling domains simply take fewer chunks. *)
type disposition =
  | Seq of chunk list
  | Buckets of chunk list list
  | Queue of chunk array

let dispose ~chunking ~threads phase prepared =
  match phase with
  | Sched.Doall _ ->
      let n = Array.fold_left ( + ) 0 prepared.p_units in
      if threads <= 1 then Seq (doall_chunk_ranges ~chunks:1 n)
      else (
        match chunking with
        | `Static ->
            Buckets
              (List.map (fun c -> [ c ]) (doall_chunk_ranges ~chunks:threads n))
        | `Cost cost ->
            let k = Sim.doall_chunk_count cost ~threads ~n in
            Queue (Array.of_list (doall_chunk_ranges ~chunks:k n)))
  | Sched.Tasks _ ->
      let chunks =
        List.filter
          (fun c -> c.c_len > 0)
          (List.init (Array.length prepared.p_units) (fun u ->
               { c_unit = u; c_id = u; c_off = 0; c_len = prepared.p_units.(u) }))
      in
      if threads <= 1 then Seq chunks
      else (
        match chunking with
        | `Static -> Buckets (lpt_deal threads chunks)
        | `Cost _ ->
            let arr = Array.of_list chunks in
            Array.sort
              (fun a b ->
                let c = compare b.c_len a.c_len in
                if c <> 0 then c else compare a.c_id b.c_id)
              arr;
            Queue arr)

let disposition_units = function
  | Seq chunks -> List.length chunks
  | Buckets buckets -> List.fold_left (fun acc b -> acc + List.length b) 0 buckets
  | Queue chunks -> Array.length chunks

(* ---- instrumented chunk execution ------------------------------------ *)

(* Runs the chunks [iter_chunks] yields to this domain and returns the
   seconds it was busy, the words it allocated (the GC delta is taken
   inside the executing domain, so on OCaml 5 the counters are exact for
   this domain's work) and the instances it executed.  With a recording
   sink each chunk gets a span carrying the per-chunk sample
   {!Obs.Critpath} consumes: [("phase", label)], [(kind, id)] and
   [("len", points)]. *)
let run_chunks ~sink ~label ~kind runner iter_chunks =
  let gc0 = Obs.Gcstats.quick () in
  let t0 = Obs.Clock.now_ns () in
  let load = ref 0 in
  if not (Obs.Sink.enabled sink) then
    iter_chunks (fun c ->
        if c.c_len > 0 then begin
          load := !load + c.c_len;
          runner c.c_unit c.c_off c.c_len
        end)
  else
    Obs.Span.with_ ~sink ~name:("bucket:" ^ label) (fun () ->
        iter_chunks (fun c ->
            if c.c_len > 0 then begin
              load := !load + c.c_len;
              let s0 = Obs.Clock.now_ns () in
              Obs.Span.with_ ~sink ~name:"task"
                ~args:
                  [
                    ("phase", label);
                    (kind, string_of_int c.c_id);
                    ("len", string_of_int c.c_len);
                  ]
                (fun () -> runner c.c_unit c.c_off c.c_len);
              Obs.Histogram.observe task_len_hist c.c_len;
              Obs.Histogram.observe task_ns_hist
                (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) s0))
            end));
  let busy = Obs.Clock.elapsed_s t0 in
  let words =
    Obs.Gcstats.(allocated_words (diff ~before:gc0 ~after:(quick ())))
  in
  (busy, words, !load)

(* The single execution path: every phase — sequential or parallel, any
   engine, either chunking mode — goes through here, so instrumentation
   (per-phase wall time and per-domain load/busy time) is measured on
   exactly the code that runs.  Parallel work is handed to the persistent
   [pool]; the return from {!Workers.run} is the inter-phase barrier. *)
let run_phase_timed ?(sink = Obs.Sink.null) ~pool ~chunking prepared ~threads
    phase =
  let threads = max 1 threads in
  let label = Sched.phase_label phase in
  let kind = prepared.p_kind in
  let n_instances = Sched.phase_size phase in
  let t0 = Obs.Clock.now_ns () in
  let disposition = dispose ~chunking ~threads phase prepared in
  let n_units = disposition_units disposition in
  let require_pool () =
    match pool with
    | Some p -> p
    | None -> invalid_arg "Exec: parallel phase without a pool"
  in
  let loads, busy, alloc =
    match disposition with
    | Seq chunks ->
        let runner = prepared.p_runner () in
        let b, w, _ =
          run_chunks ~sink ~label ~kind runner (fun f -> List.iter f chunks)
        in
        ([| n_instances |], [| b |], [| w |])
    | Buckets buckets -> (
        (* Hand only buckets that hold work to the pool: empty buckets
           would pay the queue round-trip for nothing. *)
        match List.filter (fun b -> b <> []) buckets with
        | [] -> ([||], [||], [||])
        | buckets ->
            let pool = require_pool () in
            let stats =
              Workers.run pool
                (Array.of_list
                   (List.map
                      (fun b () ->
                        let runner = prepared.p_runner () in
                        run_chunks ~sink ~label ~kind runner (fun f ->
                            List.iter f b))
                      buckets))
            in
            ( Array.map (fun (_, _, l) -> l) stats,
              Array.map (fun (b, _, _) -> b) stats,
              Array.map (fun (_, w, _) -> w) stats ))
    | Queue chunks ->
        if Array.length chunks = 0 then ([||], [||], [||])
        else begin
          let pool = require_pool () in
          let next = Atomic.make 0 in
          let n_chunks = Array.length chunks in
          let stats =
            Workers.run pool
              (Array.init (min threads n_chunks) (fun _ () ->
                   let runner = prepared.p_runner () in
                   run_chunks ~sink ~label ~kind runner (fun f ->
                       let rec drain () =
                         let k = Atomic.fetch_and_add next 1 in
                         if k < n_chunks then begin
                           f chunks.(k);
                           drain ()
                         end
                       in
                       drain ())))
          in
          ( Array.map (fun (_, _, l) -> l) stats,
            Array.map (fun (b, _, _) -> b) stats,
            Array.map (fun (_, w, _) -> w) stats )
        end
  in
  {
    label;
    n_instances;
    n_units;
    loads;
    busy;
    alloc;
    seconds = Obs.Clock.elapsed_s t0;
  }

let run_timed ?(sink = Obs.Sink.null) ?(engine = `Compiled)
    ?(chunking = `Cost Sim.base_seconds) ?workers env ~threads s =
  let threads = max 1 threads in
  let store =
    let memo = if Interp.memoized env then "hit" else "miss" in
    Obs.Span.with_ ~sink ~name:"store" ~args:[ ("memo", memo) ] (fun () ->
        Interp.scan_bounds env)
  in
  (* Engine setup — kernel compilation and, for the bytecode engine,
     per-phase work packing — happens outside the timed region, like
     store setup: [seconds] measures execution of the hot loop. *)
  let prepare : Sched.phase -> prepared =
    match engine with
    | `Interp ->
        let exec = Interp.exec_instance env store in
        prepared_of_exec exec
    | `Compiled ->
        let compiled =
          Obs.Span.with_ ~sink ~name:"compile" (fun () ->
              Compile.program env store)
        in
        prepared_of_exec (Compile.exec_instance compiled)
    | `Bytecode ->
        let bp =
          Obs.Span.with_ ~sink ~name:"compile" (fun () ->
              Bytecode.compile env store)
        in
        fun phase ->
          let w = Bytecode.pack bp phase in
          {
            p_kind = kind_of_phase phase;
            p_units = Bytecode.unit_sizes w;
            p_runner =
              (fun () ->
                let sc = Bytecode.scratch bp in
                fun u off len -> Bytecode.exec_range bp sc w ~unit_:u ~off ~len);
          }
  in
  let prepped = List.map (fun phase -> (phase, prepare phase)) s.Sched.phases in
  let pool, owned =
    if threads = 1 then (None, false)
    else
      match workers with
      | Some w -> (Some w, false)
      | None -> (Some (Workers.create ~domains:threads), true)
  in
  Fun.protect
    ~finally:(fun () -> if owned then Option.iter Workers.shutdown pool)
    (fun () ->
      let t0 = Obs.Clock.now_ns () in
      let phase_stats =
        List.map
          (fun (phase, prepared) ->
            Obs.Span.with_ ~sink ~name:("phase:" ^ Sched.phase_label phase)
              (fun () ->
                run_phase_timed ~sink ~pool ~chunking prepared ~threads phase))
          prepped
      in
      { store; seconds = Obs.Clock.elapsed_s t0; phase_stats })

let run ?engine ?chunking env ~threads s =
  (run_timed ?engine ?chunking env ~threads s).store

let wall_time ?engine ?chunking env ~threads s =
  (run_timed ?engine ?chunking env ~threads s).seconds

let check ?engine ?chunking env ~threads s =
  let seq = Interp.run_sequential env in
  let got = run ?engine ?chunking env ~threads s in
  if Arrays.equal seq got then Ok ()
  else
    Error
      (Printf.sprintf "parallel execution diverged (max abs diff %g)"
         (Arrays.max_abs_diff seq got))

let thread_loads timed ~threads =
  let threads = max 1 threads in
  let acc = Array.make threads 0 in
  List.iter
    (fun ps ->
      (* A phase may have used more buckets than [threads] (e.g. stats
         taken with a smaller thread count than the run): fold the
         overflow into the last slot instead of dropping it. *)
      Array.iteri
        (fun k l -> acc.(min k (threads - 1)) <- acc.(min k (threads - 1)) + l)
        ps.loads)
    timed.phase_stats;
  acc

(* Exposed for tests. *)
let doall_chunks ~chunks n =
  List.map (fun c -> (c.c_off, c.c_len)) (doall_chunk_ranges ~chunks n)
