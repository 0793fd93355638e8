type engine = [ `Compiled | `Interp ]

let engine_name = function `Compiled -> "compiled" | `Interp -> "interp"

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

(* ---- chunk building --------------------------------------------------- *)

(* A chunk addresses a contiguous instance range of one work unit — a
   DOALL block ([c_unit] 0, [c_id] the block ordinal) or a whole
   sequential task ([c_unit] = [c_id] = the task index; for REC plans the
   recurrence-chain id, which the per-task spans carry so barrier
   stragglers stay attributable to a chain).  Chunks are descriptors over
   the phase's instance arrays: building them copies no instance data. *)
type chunk = { c_unit : int; c_id : int; c_off : int; c_len : int }

(* The phase's work units: one for a DOALL, one per task otherwise. *)
let units_of_phase = function
  | Sched.Doall { instances; _ } -> [| instances |]
  | Sched.Tasks { tasks; _ } -> tasks

let unit_sizes phase = Array.map Array.length (units_of_phase phase)

let kind_of_phase = function
  | Sched.Doall _ -> "block"
  | Sched.Tasks _ -> "chain"

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

(* The phase's chunks, in the order domains take them: DOALL blocks sized
   cost-proportionally by {!Sim.doall_chunk_count} (one block when
   sequential), or the non-empty tasks — sorted longest-first when
   several domains drain them through one atomic cursor, so late-waking
   or straggling domains simply take fewer chunks.  A list, not an array:
   a sequential run walks it once, and an array of thousands of fresh
   chunks would be allocated in the major heap and pay the write barrier
   per element. *)
let chunks_of_phase ~cost ~threads phase sizes =
  match phase with
  | Sched.Doall _ ->
      let n = sizes.(0) in
      doall_chunk_ranges ~chunks:(Sim.doall_chunk_count cost ~threads ~n) n
  | Sched.Tasks _ ->
      let chunks = ref [] in
      for u = Array.length sizes - 1 downto 0 do
        if sizes.(u) > 0 then
          chunks :=
            { c_unit = u; c_id = u; c_off = 0; c_len = sizes.(u) } :: !chunks
      done;
      if threads <= 1 then !chunks
      else
        List.sort
          (fun a b ->
            let c = compare b.c_len a.c_len in
            if c <> 0 then c else compare a.c_id b.c_id)
          !chunks

(* ---- instrumented chunk execution ------------------------------------ *)

(* Runs the chunks [iter_chunks] yields to this domain and returns the
   seconds it was busy, the minor-heap words it allocated and the
   instances it executed.  The allocation is a [Gc.minor_words] delta
   taken on the executing domain: on OCaml 5 that counter is local to
   the domain and exact, where [Gc.quick_stat]'s moves only at a minor
   collection, and reading it allocates nothing.  With a recording
   sink each chunk gets a span carrying the per-chunk sample
   {!Obs.Critpath} consumes: [("phase", label)], [(kind, id)] and
   [("len", points)]. *)
let run_chunks ~sink ~label ~kind runner iter_chunks =
  let w0 = Gc.minor_words () in
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
  (busy, Gc.minor_words () -. w0, !load)

(* The single execution path: every phase — sequential or parallel,
   either engine — goes through here, so instrumentation (per-phase wall
   time and per-domain load/busy time) is measured on exactly the code
   that runs.  Parallel work is handed to the persistent [pool]; the
   return from {!Workers.run} is the inter-phase barrier. *)
let run_phase_timed ?(sink = Obs.Sink.null) ~pool ~cost exec ~threads
    (phase, sizes) =
  let threads = max 1 threads in
  let label = Sched.phase_label phase in
  let kind = kind_of_phase phase in
  let n_instances = Sched.phase_size phase in
  let t0 = Obs.Clock.now_ns () in
  let units = units_of_phase phase in
  let chunks = chunks_of_phase ~cost ~threads phase sizes in
  let runner u off len =
    let t = units.(u) in
    for i = off to off + len - 1 do
      exec t.(i)
    done
  in
  let n_chunks = List.length chunks in
  let loads, busy, alloc =
    if threads <= 1 then begin
      let b, w, _ =
        run_chunks ~sink ~label ~kind runner (fun f -> List.iter f chunks)
      in
      ([| n_instances |], [| b |], [| w |])
    end
    else if n_chunks = 0 then ([||], [||], [||])
    else begin
      let chunks = Array.of_list chunks in
      let pool =
        match pool with
        | Some p -> p
        | None -> invalid_arg "Exec: parallel phase without a pool"
      in
      let next = Atomic.make 0 in
      let stats =
        Workers.run pool
          (Array.init (min threads n_chunks) (fun _ () ->
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
    n_units = n_chunks;
    loads;
    busy;
    alloc;
    seconds = Obs.Clock.elapsed_s t0;
  }

let run_timed ?(sink = Obs.Sink.null) ?(engine = `Compiled)
    ?(cost = Sim.base_seconds) ?workers env ~threads s =
  let threads = max 1 threads in
  let store =
    let memo = if Interp.memoized env then "hit" else "miss" in
    Obs.Span.with_ ~sink ~name:"store" ~args:[ ("memo", memo) ] (fun () ->
        Interp.scan_bounds env)
  in
  (* Kernel compilation and reading the per-unit sizes happen outside the
     timed region, like store setup: [seconds] measures execution of the
     hot loop. *)
  let exec =
    match engine with
    | `Interp -> Interp.exec_instance env store
    | `Compiled ->
        Compile.exec_instance
          (Obs.Span.with_ ~sink ~name:"compile" (fun () ->
               Compile.program env store))
  in
  let sized =
    List.map (fun phase -> (phase, unit_sizes phase)) s.Sched.phases
  in
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
          (fun ((phase, _) as p) ->
            Obs.Span.with_ ~sink ~name:("phase:" ^ Sched.phase_label phase)
              (fun () -> run_phase_timed ~sink ~pool ~cost exec ~threads p))
          sized
      in
      { store; seconds = Obs.Clock.elapsed_s t0; phase_stats })

let run ?engine ?cost env ~threads s =
  (run_timed ?engine ?cost env ~threads s).store

let check ?engine ?cost env ~threads s =
  let seq = Interp.run_sequential env in
  let got = run ?engine ?cost env ~threads s in
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
