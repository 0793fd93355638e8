(* One Runtime.Exec.run_timed call measured from outside: its wall, its
   own per-phase statistics, and the ledger children that split it into
   store set-up, kernel compilation and the execution phases. *)

type kind = Doall | Tasks

let kind_name = function Doall -> "doall" | Tasks -> "tasks"

let kinds (s : Runtime.Sched.t) =
  List.map
    (function Runtime.Sched.Doall _ -> Doall | Runtime.Sched.Tasks _ -> Tasks)
    s.Runtime.Sched.phases

type t = {
  wall : float;  (** outside wall of the call *)
  kernel : float;  (** run_timed's own [seconds]: the phases' run time *)
  phases : (kind * Runtime.Exec.phase_stat) list;
  t_in : int64;
  t_out : int64;
}

(* The call's statistics, and its final store for the caller to check;
   the statistics do not keep the store alive. *)
let run ?workers env ~threads (s : Runtime.Sched.t) =
  let t_in = Obs.Clock.now_ns () in
  let tmd = Runtime.Exec.run_timed ?workers env ~threads s in
  let t_out = Obs.Clock.now_ns () in
  ( {
      wall = Int64.to_float (Int64.sub t_out t_in) *. 1e-9;
      kernel = tmd.seconds;
      phases = List.combine (kinds s) tmd.phase_stats;
      t_in;
      t_out;
    },
    tmd.store )

let phase_sum ?kind c f =
  List.fold_left
    (fun a (k, (p : Runtime.Exec.phase_stat)) ->
      if Option.fold ~none:true ~some:(( = ) k) kind then a +. f p else a)
    0.0 c.phases

let seconds ?kind c = phase_sum ?kind c (fun p -> p.seconds)
let busy c = phase_sum c (fun p -> Stat.sum (Array.to_list p.busy))
let alloc c = phase_sum c (fun p -> Stat.sum (Array.to_list p.alloc))
let units c = List.fold_left (fun a (_, (p : Runtime.Exec.phase_stat)) -> a + p.n_units) 0 c.phases

(* Store set-up and compilation happen inside run_timed before its timed
   phases and are not reported by it.  Their cost is measured by calling
   Interp.scan_bounds and Compile.program directly ([calibrate], once per
   program, outside every pass); the ledger places those costs at the
   start of the call, and the phases, as run_timed timed them, at its
   end.  What remains of the call is its own self time. *)
type calib = { store_s : float; compile_s : float }

let calibrate env =
  let time f =
    let t0 = Obs.Clock.now_ns () in
    let r = f () in
    (Obs.Clock.elapsed_s t0, r)
  in
  let stores = List.init 3 (fun _ -> time (fun () -> Runtime.Interp.scan_bounds env)) in
  let store = snd (List.hd stores) in
  let compiles =
    List.init 3 (fun _ -> fst (time (fun () -> Runtime.Compile.program env store)))
  in
  { store_s = Stat.median (List.map fst stores); compile_s = Stat.median compiles }

let ns s = Int64.of_float (s *. 1e9)

let place ledger (sp : Ledger.span) ~prefix calib c =
  let run_ns = ns c.kernel in
  let pre = Int64.max 0L (Int64.sub (Int64.sub c.t_out c.t_in) run_ns) in
  let store = Int64.min pre (ns calib.store_s) in
  let compile = Int64.min (Int64.sub pre store) (ns calib.compile_s) in
  let synth ~name ~start_ns ~dur_ns =
    ignore (Ledger.synth ledger sp ~name ~start_ns ~dur_ns)
  in
  synth ~name:"runtime.store" ~start_ns:c.t_in ~dur_ns:store;
  synth ~name:"runtime.compile" ~start_ns:(Int64.add c.t_in store) ~dur_ns:compile;
  let cursor = ref (Int64.sub c.t_out run_ns) in
  List.iter
    (fun (k, (p : Runtime.Exec.phase_stat)) ->
      let d = Int64.min (ns p.Runtime.Exec.seconds) (Int64.sub c.t_out !cursor) in
      synth
        ~name:(Printf.sprintf "exec.%s.%s" prefix (kind_name k))
        ~start_ns:!cursor ~dur_ns:d;
      cursor := Int64.add !cursor d)
    c.phases
