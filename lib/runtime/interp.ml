module Ast = Loopir.Ast
module Prog = Loopir.Prog

type memo = Arrays.shape option Atomic.t

type env = {
  prog : Ast.program;
  params : (string * int) list;
  stmts : Prog.stmt_info array;
  shape : memo;
}

let prepare prog ~params =
  let prog = Loopir.Normalize.unit_strides prog in
  List.iter
    (fun p ->
      if not (List.mem_assoc p params) then
        failwith (Printf.sprintf "Interp: unbound parameter %s" p))
    prog.Ast.params;
  {
    prog;
    params;
    stmts = Array.of_list (Prog.stmts_of prog);
    shape = Atomic.make None;
  }

let var_env t bindings name =
  match List.assoc_opt name bindings with
  | Some v -> v
  | None -> (
      match List.assoc_opt name t.params with
      | Some v -> v
      | None -> failwith (Printf.sprintf "Interp: unbound variable %s" name))

(* Float evaluation of right-hand sides. *)
let rec feval store ienv e =
  match e with
  | Ast.Int k -> float_of_int k
  | Ast.Real r -> r
  | Ast.Var v -> float_of_int (ienv v)
  | Ast.Ref (a, subs) ->
      Arrays.get store a (List.map (Loopir.Eval_int.eval ienv) subs)
  | Ast.Bin (Ast.Add, a, b) -> feval store ienv a +. feval store ienv b
  | Ast.Bin (Ast.Sub, a, b) -> feval store ienv a -. feval store ienv b
  | Ast.Bin (Ast.Mul, a, b) -> feval store ienv a *. feval store ienv b
  | Ast.Bin (Ast.Div, a, b) -> feval store ienv a /. feval store ienv b
  | Ast.Un (Ast.Neg, a) -> -.feval store ienv a
  | Ast.Un (Ast.Sqrt, a) -> sqrt (feval store ienv a)
  | Ast.Un (Ast.Abs, a) -> Float.abs (feval store ienv a)
  | Ast.Min es ->
      List.fold_left (fun m e -> Float.min m (feval store ienv e)) infinity es
  | Ast.Max es ->
      List.fold_left
        (fun m e -> Float.max m (feval store ienv e))
        neg_infinity es
  | Ast.Mod (a, b) ->
      float_of_int
        (Numeric.Safeint.emod (Loopir.Eval_int.eval ienv a)
           (Loopir.Eval_int.eval ienv b))
  | Ast.Pow (a, k) -> feval store ienv a ** float_of_int k

(* Walk the whole program in source order, calling [visit] on each statement
   instance's environment. *)
let iterate t visit =
  let rec run bindings stmt_counter = function
    | Ast.Assign (lhs, rhs) ->
        let id = !stmt_counter in
        incr stmt_counter;
        visit ~stmt:id ~bindings lhs rhs
    | Ast.Loop l ->
        let ienv = var_env t bindings in
        let lo = Loopir.Eval_int.eval ienv l.Ast.lo
        and hi = Loopir.Eval_int.eval ienv l.Ast.hi in
        let saved = !stmt_counter in
        if lo > hi then begin
          (* Still advance the static statement numbering. *)
          let rec count = function
            | Ast.Assign _ -> incr stmt_counter
            | Ast.Loop l -> List.iter count l.Ast.body
          in
          List.iter count l.Ast.body
        end
        else
          for v = lo to hi do
            stmt_counter := saved;
            List.iter
              (run ((l.Ast.index, v) :: bindings) stmt_counter)
              l.Ast.body
          done
    in
  let counter = ref 0 in
  List.iter (run [] counter) t.prog.Ast.body

let walk_bounds t =
  let store = Arrays.create () in
  let note ~stmt:_ ~bindings (a, subs) rhs =
    let ienv = var_env t bindings in
    Arrays.note_bounds store a (List.map (Loopir.Eval_int.eval ienv) subs);
    let rec scan = function
      | Ast.Ref (a, subs) ->
          Arrays.note_bounds store a
            (List.map (Loopir.Eval_int.eval ienv) subs);
          List.iter scan subs
      | Ast.Bin (_, x, y) | Ast.Mod (x, y) ->
          scan x;
          scan y
      | Ast.Un (_, x) | Ast.Pow (x, _) -> scan x
      | Ast.Min es | Ast.Max es -> List.iter scan es
      | Ast.Int _ | Ast.Real _ | Ast.Var _ -> ()
    in
    scan rhs
  in
  iterate t note;
  Arrays.freeze store;
  store

(* [prog] and [params] never change, so a recorded shape never goes
   stale.  Racing first calls both walk and record equal shapes; a walk
   that raises records nothing, so later calls raise too. *)
let scan_bounds t =
  match Atomic.get t.shape with
  | Some sh -> Arrays.of_shape sh
  | None ->
      let store = walk_bounds t in
      Atomic.set t.shape (Some (Arrays.shape store));
      store

let memoized t = Option.is_some (Atomic.get t.shape)

let exec_assign t store bindings (a, subs) rhs =
  let ienv = var_env t bindings in
  let v = feval store ienv rhs in
  Arrays.set store a (List.map (Loopir.Eval_int.eval ienv) subs) v

let run_sequential t =
  let store = scan_bounds t in
  iterate t (fun ~stmt:_ ~bindings lhs rhs ->
      exec_assign t store bindings lhs rhs);
  store

let exec_instance t store (inst : Sched.instance) =
  let info = t.stmts.(inst.Sched.stmt) in
  let vars = Prog.loop_vars info in
  if List.length vars <> Array.length inst.Sched.iter then
    failwith "Interp.exec_instance: iteration arity mismatch";
  let bindings = List.mapi (fun k v -> (v, inst.Sched.iter.(k))) vars in
  exec_assign t store bindings info.Prog.lhs info.Prog.rhs

let run_schedule t (s : Sched.t) =
  let store = scan_bounds t in
  List.iter
    (fun phase ->
      Array.iter (exec_instance t store) (Sched.phase_instances phase))
    s.Sched.phases;
  store

let check_schedule t s =
  let seq = run_sequential t in
  let got = run_schedule t s in
  if Arrays.equal seq got then Ok ()
  else
    Error
      (Printf.sprintf "arrays differ (max abs diff %g)"
         (Arrays.max_abs_diff seq got))
