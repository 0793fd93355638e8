(* Tests for the execution substrate: dense array store, interpreter,
   schedules (legality + semantics), cost simulator, domain executor. *)

module Sched = Runtime.Sched
module Interp = Runtime.Interp
module Arrays = Runtime.Arrays
module Sim = Runtime.Sim
module Exec = Runtime.Exec
module Trace = Depend.Trace
module Partition = Core.Partition
module Dataflow = Core.Dataflow

(* ------------------------------------------------------------------ *)
(* Arrays                                                               *)

let test_arrays_basic () =
  let s = Arrays.create () in
  Arrays.note_bounds s "a" [ -3; 2 ];
  Arrays.note_bounds s "a" [ 5; 7 ];
  Arrays.freeze s;
  Alcotest.(check (float 0.0))
    "initial value deterministic"
    (Arrays.initial_value "a" [ 0; 3 ])
    (Arrays.get s "a" [ 0; 3 ]);
  Arrays.set s "a" [ -3; 7 ] 42.0;
  Alcotest.(check (float 0.0)) "set/get" 42.0 (Arrays.get s "a" [ -3; 7 ]);
  (* out-of-extent read falls back to the deterministic initial value *)
  Alcotest.(check (float 0.0))
    "out-of-extent read"
    (Arrays.initial_value "a" [ 100; 100 ])
    (Arrays.get s "a" [ 100; 100 ])

let test_arrays_equal () =
  let mk () =
    let s = Arrays.create () in
    Arrays.note_bounds s "x" [ 0 ];
    Arrays.note_bounds s "x" [ 4 ];
    Arrays.freeze s;
    s
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "fresh equal" true (Arrays.equal a b);
  Arrays.set a "x" [ 2 ] 1.0;
  Alcotest.(check bool) "diverged" false (Arrays.equal a b);
  (* A 2×3 and a 3×2 store holding the same six values differ. *)
  let grid rows cols =
    let s = Arrays.create () in
    Arrays.note_bounds s "g" [ 1; 1 ];
    Arrays.note_bounds s "g" [ rows; cols ];
    Arrays.freeze s;
    let v = Option.get (Arrays.view s "g") in
    Array.iteri (fun k _ -> v.Arrays.v_data.(k) <- float_of_int k) v.Arrays.v_data;
    s
  in
  let wide = grid 2 3 and tall = grid 3 2 in
  Alcotest.(check (float 0.0)) "same data" 0.0 (Arrays.max_abs_diff wide tall);
  Alcotest.(check bool) "extents differ" false (Arrays.equal wide tall)

(* Every index tuple of the box [lo, hi], in row-major order. *)
let rec box lo hi =
  match (lo, hi) with
  | [], [] -> [ [] ]
  | l :: lo, h :: hi ->
      let rest = box lo hi in
      List.concat_map (fun v -> List.map (fun r -> v :: r) rest)
        (List.init (h - l + 1) (( + ) l))
  | _ -> invalid_arg "box"

let test_arrays_seeding () =
  (* Seeding walks cells in row-major order; each must hold exactly the
     value [initial_value] computes for its index, at every rank. *)
  let cases =
    [
      ("z", [], []);
      ("v", [ -4 ], [ 6 ]);
      ("m", [ -3; 2 ], [ 5; 7 ]);
      ("c", [ -2; -1; 0 ], [ 1; 3; 2 ]);
    ]
  in
  let s = Arrays.create () in
  List.iter
    (fun (name, lo, hi) ->
      Arrays.note_bounds s name lo;
      Arrays.note_bounds s name hi)
    cases;
  Arrays.freeze s;
  List.iter
    (fun (name, lo, hi) ->
      let cells = box lo hi in
      Alcotest.(check int)
        (name ^ " cell count")
        (List.length cells)
        (Array.length (Option.get (Arrays.view s name)).Arrays.v_data);
      List.iter
        (fun idx ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s(%s)" name
               (String.concat "," (List.map string_of_int idx)))
            (Arrays.initial_value name idx)
            (Arrays.get s name idx))
        cells)
    cases;
  (* Neighbours almost always differ, so a misordered write shows. *)
  let g = Arrays.create () in
  Arrays.note_bounds g "g" [ 1; 1 ];
  Arrays.note_bounds g "g" [ 64; 64 ];
  Arrays.freeze g;
  let pairs = ref 0 and same = ref 0 in
  for i = 1 to 64 do
    for j = 1 to 64 do
      let v = Arrays.get g "g" [ i; j ] in
      List.iter
        (fun (i', j') ->
          if i' <= 64 && j' <= 64 then begin
            incr pairs;
            if Arrays.get g "g" [ i'; j' ] = v then incr same
          end)
        [ (i, j + 1); (i + 1, j) ]
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d adjacent pairs equal" !same !pairs)
    true
    (100 * !same <= !pairs)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                          *)

let cholesky_env () =
  Interp.prepare Loopir.Builtin.cholesky
    ~params:[ ("nmat", 2); ("m", 2); ("n", 5); ("nrhs", 1) ]

let test_scan_memo_hit () =
  (* The second scan on an env seeds from the recorded shape; it must
     match a scan that walks a fresh env, and own its data. *)
  let env = cholesky_env () in
  Alcotest.(check bool) "fresh env" false (Interp.memoized env);
  let miss = Interp.scan_bounds env in
  Alcotest.(check bool) "recorded" true (Interp.memoized env);
  let hit = Interp.scan_bounds env in
  let walked = Interp.scan_bounds (cholesky_env ()) in
  Alcotest.(check (list string)) "arrays" (Arrays.arrays walked)
    (Arrays.arrays hit);
  List.iter
    (fun name ->
      let w = Option.get (Arrays.view walked name)
      and h = Option.get (Arrays.view hit name) in
      Alcotest.(check (array int)) (name ^ " lo") w.Arrays.v_lo h.Arrays.v_lo;
      Alcotest.(check (array int)) (name ^ " hi") w.Arrays.v_hi h.Arrays.v_hi;
      Alcotest.(check bool)
        (name ^ " bit-equal data")
        true
        (Array.for_all2
           (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           w.Arrays.v_data h.Arrays.v_data))
    (Arrays.arrays walked);
  Alcotest.(check bool) "hit ≡ walked" true (Arrays.equal hit walked);
  Alcotest.(check bool) "hit ≡ miss" true (Arrays.equal hit miss);
  let name = List.hd (Arrays.arrays hit) in
  let v = Option.get (Arrays.view hit name) in
  v.Arrays.v_data.(0) <- v.Arrays.v_data.(0) +. 1.0;
  Alcotest.(check bool) "write not seen by the first store" true
    (Arrays.equal miss walked);
  Alcotest.(check bool) "write not seen by a later store" true
    (Arrays.equal (Interp.scan_bounds env) walked);
  Alcotest.(check bool) "written store differs" false (Arrays.equal hit walked)

let test_scan_failure_not_memoized () =
  (* [i * k] overflows at i = 2: every scan must raise, not just the
     first, or compiled kernels would run unchecked subscripts. *)
  let prog =
    Loopir.Parser.parse ~name:"overflow" "DO i = 1, 2\n  a(i*k) = 1.0\nENDDO"
  in
  let env = Interp.prepare prog ~params:[ ("k", (max_int / 2) + 1) ] in
  for call = 1 to 2 do
    match Interp.scan_bounds env with
    | _ -> Alcotest.failf "scan %d did not raise" call
    | exception Numeric.Safeint.Overflow ->
        Alcotest.(check bool) "nothing recorded" false (Interp.memoized env)
  done

let test_scan_first_call_race () =
  (* Two domains race the first scan on each fresh env; both stores, and
     the one seeded from whichever shape won, equal a walked reference. *)
  let reference = Interp.scan_bounds (cholesky_env ()) in
  for _ = 1 to 8 do
    let env = cholesky_env () in
    let ds = List.init 2 (fun _ -> Domain.spawn (fun () -> Interp.scan_bounds env)) in
    List.iter
      (fun s -> Alcotest.(check bool) "racer ≡ reference" true (Arrays.equal s reference))
      (List.map Domain.join ds);
    Alcotest.(check bool) "memo ≡ reference" true
      (Arrays.equal (Interp.scan_bounds env) reference)
  done

let test_interp_prefix_sum () =
  let prog = List.assoc "prefix_sum" Loopir.Builtin.corpus in
  let env = Interp.prepare prog ~params:[ ("n", 5) ] in
  let store = Interp.run_sequential env in
  (* s(i) = s(i-1) + a(i): check the recurrence holds on the result. *)
  let s i = Arrays.get store "s" [ i ] in
  let a i = Arrays.get store "a" [ i ] in
  let expected = ref (Arrays.initial_value "s" [ 1 ]) in
  for i = 2 to 5 do
    expected := !expected +. a i;
    Alcotest.(check (float 1e-9)) (Printf.sprintf "s(%d)" i) !expected (s i)
  done

let test_interp_schedule_equivalence_fig2 () =
  let env = Interp.prepare Loopir.Builtin.fig2 ~params:[] in
  let tr = Trace.build Loopir.Builtin.fig2 ~params:[] in
  let sched = Sched.sequential_of_trace tr in
  match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let rec_schedule prog params_assoc params_arr =
  match Partition.choose prog with
  | Partition.Rec_chains rp ->
      let c = Partition.materialize_rec rp ~params:params_arr in
      (Interp.prepare prog ~params:params_assoc, Sched.of_rec ~stmt:0 c)
  | _ -> Alcotest.fail "REC plan expected"

let test_rec_schedule_semantics_ex1 () =
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 10); ("n2", 10) ]
      [| 10; 10 |]
  in
  (match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("interp: " ^ m));
  let tr =
    Trace.build Loopir.Builtin.example1 ~params:[ ("n1", 10); ("n2", 10) ]
  in
  match Sched.check_legal sched tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legality: " ^ m)

let test_rec_schedule_semantics_ex2 () =
  let env, sched =
    rec_schedule Loopir.Builtin.example2 [ ("n", 12) ] [| 12 |]
  in
  (match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("interp: " ^ m));
  let tr = Trace.build Loopir.Builtin.example2 ~params:[ ("n", 12) ] in
  match Sched.check_legal sched tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legality: " ^ m)

let test_fronts_schedule_cholesky () =
  let params = [ ("nmat", 2); ("m", 2); ("n", 5); ("nrhs", 1) ] in
  let c = Dataflow.peel_concrete Loopir.Builtin.cholesky ~params in
  let sched = Sched.of_fronts c in
  let env = Interp.prepare Loopir.Builtin.cholesky ~params in
  (match Interp.check_schedule env sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("interp: " ^ m));
  let tr = Trace.build Loopir.Builtin.cholesky ~params in
  match Sched.check_legal sched tr with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legality: " ^ m)

let test_illegal_schedule_detected () =
  (* Reverse the sequential order of a serial chain: must be caught both by
     the legality checker and by the interpreter. *)
  let prog = List.assoc "prefix_sum" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 6) ] in
  let rev_task =
    Array.of_list
      (List.rev
         (Array.to_list
            (Array.map
               (fun (i : Trace.instance) ->
                 { Sched.stmt = i.Trace.stmt; iter = i.Trace.iter })
               tr.Trace.instances)))
  in
  let bad = Sched.of_phases [ Sched.Tasks { label = "bad"; tasks = [| rev_task |] } ] in
  (match Sched.check_legal bad tr with
  | Ok () -> Alcotest.fail "legality checker missed reversal"
  | Error _ -> ());
  let env = Interp.prepare prog ~params:[ ("n", 6) ] in
  match Interp.check_schedule env bad with
  | Ok () -> Alcotest.fail "interpreter missed reversal"
  | Error _ -> ()

let test_duplicate_instance_detected () =
  let prog = List.assoc "vecadd" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 3) ] in
  let inst k = { Sched.stmt = 0; iter = [| k |] } in
  let bad =
    Sched.of_phases
      [ Sched.Doall { label = "dup"; instances = [| inst 1; inst 2; inst 3; inst 2 |] } ]
  in
  match Sched.check_legal bad tr with
  | Ok () -> Alcotest.fail "duplicate not detected"
  | Error _ -> ()

let test_duplicate_across_tasks_detected () =
  (* The same instance appearing in two tasks of one phase must be caught
     even though each task alone is fine. *)
  let prog = List.assoc "vecadd" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 3) ] in
  let inst k = { Sched.stmt = 0; iter = [| k |] } in
  let bad =
    Sched.of_phases
      [
        Sched.Tasks
          { label = "dup"; tasks = [| [| inst 1; inst 2 |]; [| inst 2; inst 3 |] |] };
      ]
  in
  match Sched.check_legal bad tr with
  | Ok () -> Alcotest.fail "cross-task duplicate not detected"
  | Error _ -> ()

let test_edge_violation_same_doall_detected () =
  (* Putting a dependent pair in the same DOALL phase breaks the edge even
     though every instance appears exactly once and in source order. *)
  let prog = List.assoc "prefix_sum" Loopir.Builtin.corpus in
  let tr = Trace.build prog ~params:[ ("n", 4) ] in
  let all =
    Array.map
      (fun (i : Trace.instance) ->
        { Sched.stmt = i.Trace.stmt; iter = i.Trace.iter })
      tr.Trace.instances
  in
  let bad = Sched.of_phases [ Sched.Doall { label = "flat"; instances = all } ] in
  match Sched.check_legal bad tr with
  | Ok () -> Alcotest.fail "same-phase dependence edge not detected"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Simulator                                                            *)

let test_lpt_makespan () =
  Alcotest.(check (float 1e-9)) "balanced" 6.0
    (Sim.lpt_makespan 2 [| 4.0; 3.0; 3.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "one proc" 12.0
    (Sim.lpt_makespan 1 [| 4.0; 3.0; 3.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "dominant task" 9.0
    (Sim.lpt_makespan 4 [| 9.0; 1.0; 1.0; 1.0 |])

let test_sim_speedup_monotone () =
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 30); ("n2", 40) ]
      [| 30; 40 |]
  in
  ignore env;
  let cost = Sim.base in
  let s p = Sim.speedup cost ~threads:p ~n_seq:(30 * 40) sched in
  Alcotest.(check bool) "2 ≥ 1" true (s 2 >= s 1);
  Alcotest.(check bool) "4 ≥ 2" true (s 4 >= s 2);
  Alcotest.(check bool) "speedup positive" true (s 1 > 0.0)

let test_sim_code_factor () =
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 30); ("n2", 40) ]
      [| 30; 40 |]
  in
  ignore env;
  let fast = Sim.with_factor 0.8 and slow = Sim.with_factor 1.2 in
  Alcotest.(check bool) "cheaper code is faster" true
    (Sim.time fast ~threads:2 sched < Sim.time slow ~threads:2 sched)

let test_pipeline_time () =
  let c = { Sim.base with Sim.fork = 0.0; barrier = 0.0 } in
  (* 4 stages, no delay, 4 threads: all parallel → one stage time. *)
  Alcotest.(check (float 1e-9)) "no delay" 10.0
    (Sim.pipeline_time c ~threads:4 ~stages:4 ~stage_work:10.0 ~delay:0.0);
  (* delay ≥ stage_work on one thread: serialized by delay. *)
  let t = Sim.pipeline_time c ~threads:4 ~stages:4 ~stage_work:1.0 ~delay:5.0 in
  Alcotest.(check (float 1e-9)) "delay bound" 16.0 t

(* ------------------------------------------------------------------ *)
(* Domain executor                                                      *)

let test_exec_parallel_matches_sequential () =
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 12); ("n2", 12) ]
      [| 12; 12 |]
  in
  List.iter
    (fun threads ->
      match Exec.check env ~threads sched with
      | Ok () -> ()
      | Error m ->
          Alcotest.fail (Printf.sprintf "threads=%d: %s" threads m))
    [ 1; 2; 4 ]

let test_exec_fronts_parallel () =
  let params = [ ("nmat", 2); ("m", 2); ("n", 4); ("nrhs", 1) ] in
  let c = Dataflow.peel_concrete Loopir.Builtin.cholesky ~params in
  let sched = Sched.of_fronts c in
  let env = Interp.prepare Loopir.Builtin.cholesky ~params in
  match Exec.check env ~threads:4 sched with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_exec_determinism_paper_examples () =
  (* Every paper example, every thread count: the domain executor must land
     on exactly the sequential store (same float results, no races). *)
  let cases =
    [
      ("example1", Loopir.Builtin.example1, [ ("n1", 10); ("n2", 10) ]);
      ("fig2", Loopir.Builtin.fig2, []);
      ("example2", Loopir.Builtin.example2, [ ("n", 12) ]);
      ( "cholesky",
        Loopir.Builtin.cholesky,
        [ ("nmat", 2); ("m", 2); ("n", 5); ("nrhs", 1) ] );
    ]
  in
  List.iter
    (fun (name, prog, params) ->
      let sched =
        match Partition.choose prog with
        | Partition.Rec_chains rp ->
            let arr = Array.of_list (List.map snd params) in
            Sched.of_rec ~stmt:0 (Partition.materialize_rec_scan rp ~params:arr)
        | Partition.Dataflow_const | Partition.Pdm_fallback _ ->
            Sched.of_fronts (Dataflow.peel_concrete prog ~params)
      in
      let env = Interp.prepare prog ~params in
      List.iter
        (fun threads ->
          match Exec.check env ~threads sched with
          | Ok () -> ()
          | Error m ->
              Alcotest.fail
                (Printf.sprintf "%s at %d thread(s): %s" name threads m))
        [ 1; 2; 4; 8 ])
    cases

let test_compiled_matches_interp_examples () =
  (* Both engines must leave bit-for-bit identical stores (and both equal
     the sequential oracle) on every paper example, at 1/2/4 domains, and
     each run must execute exactly the schedule's instance count. *)
  let cases =
    [
      ("example1", Loopir.Builtin.example1, [ ("n1", 10); ("n2", 10) ], 100);
      ( "example1",
        Loopir.Builtin.example1,
        [ ("n1", 30); ("n2", 50) ],
        1500 );
      ("fig2", Loopir.Builtin.fig2, [], 20);
      ("example2", Loopir.Builtin.example2, [ ("n", 12) ], 144);
      ( "cholesky",
        Loopir.Builtin.cholesky,
        [ ("nmat", 2); ("m", 2); ("n", 5); ("nrhs", 1) ],
        282 );
    ]
  in
  List.iter
    (fun (name, prog, params, instances) ->
      let name =
        Printf.sprintf "%s(%s)" name
          (String.concat ","
             (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params))
      in
      let sched =
        match Partition.choose prog with
        | Partition.Rec_chains rp ->
            let arr = Array.of_list (List.map snd params) in
            Sched.of_rec ~stmt:0
              (Partition.materialize_rec_scan rp ~params:arr)
        | Partition.Dataflow_const | Partition.Pdm_fallback _ ->
            Sched.of_fronts (Dataflow.peel_concrete prog ~params)
      in
      Alcotest.(check int) (name ^ " scheduled instances") instances
        (Sched.n_instances sched);
      let env = Interp.prepare prog ~params in
      let oracle = Interp.run_sequential env in
      List.iter
        (fun threads ->
          let run engine =
            let tmd = Exec.run_timed ~engine env ~threads sched in
            Alcotest.(check int)
              (Printf.sprintf "%s %s t=%d executed instances" name
                 (Exec.engine_name engine) threads)
              instances
              (Array.fold_left ( + ) 0 (Exec.thread_loads tmd ~threads));
            tmd.Exec.store
          in
          let compiled = run `Compiled in
          Alcotest.(check bool)
            (Printf.sprintf "%s compiled t=%d ≡ sequential" name threads)
            true
            (Arrays.equal compiled oracle);
          let interp = run `Interp in
          Alcotest.(check bool)
            (Printf.sprintf "%s compiled t=%d ≡ interp" name threads)
            true
            (Arrays.equal compiled interp))
        [ 1; 2; 4 ])
    cases

(* A quadratic subscript cannot be fused into a linear offset: the
   compiled kernel must take the general store path. *)
let nonaffine =
  let open Loopir.Ast in
  let sq = Bin (Mul, Var "i", Var "i") in
  program ~name:"nonaffine"
    [
      Loop
        {
          index = "i";
          lo = Int 1;
          hi = Int 6;
          step = 1;
          body = [ Assign (("a", [ sq ]), Bin (Add, Ref ("a", [ sq ]), Int 1)) ];
        };
    ]

let test_compiled_matches_interp_corpus () =
  (* Every corpus kernel, plus a non-affine subscript, through a
     sequential-order schedule at 1/2/4 domains: exercises the compiler's
     general paths (non-affine subscripts, parameters in subscripts,
     multi-statement bodies, reductions). *)
  List.iter
    (fun (name, prog) ->
      let params = List.map (fun p -> (p, 8)) prog.Loopir.Ast.params in
      let tr = Trace.build prog ~params in
      let sched = Sched.sequential_of_trace tr in
      let oracle = Interp.run_sequential (Interp.prepare prog ~params) in
      (* Each env's first run walks the program for its store (memo
         miss); every later run seeds from the recorded shape (hit). *)
      let env = Interp.prepare prog ~params in
      List.iter
        (fun threads ->
          List.iter
            (fun memo ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: memo %s before t=%d" name memo threads)
                (memo = "hit") (Interp.memoized env);
              Alcotest.(check bool)
                (Printf.sprintf "%s: compiled t=%d (memo %s) ≡ sequential interp"
                   name threads memo)
                true
                (Arrays.equal
                   (Exec.run_timed ~engine:`Compiled env ~threads sched)
                     .Exec.store oracle))
            (if threads = 1 then [ "miss"; "hit" ] else [ "hit" ]))
        [ 1; 2; 4 ])
    (("nonaffine", nonaffine) :: Loopir.Builtin.corpus)

let test_doall_chunk_count_bounds () =
  (* The chunk policy: nothing for empty phases, one chunk sequentially,
     never fewer chunks than domains (work exists), never more than
     8×domains or the instance count. *)
  let c = Sim.base_seconds in
  Alcotest.(check int) "empty phase" 0 (Sim.doall_chunk_count c ~threads:4 ~n:0);
  Alcotest.(check int) "sequential" 1
    (Sim.doall_chunk_count c ~threads:1 ~n:5000);
  Alcotest.(check int) "capped by n" 2
    (Sim.doall_chunk_count c ~threads:4 ~n:2);
  List.iter
    (fun n ->
      let k = Sim.doall_chunk_count c ~threads:4 ~n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: threads <= k <= 8*threads" n)
        true
        (k >= 4 && k <= 32 && k <= n))
    [ 10; 1000; 100_000; 10_000_000 ];
  (* Cheap iterations afford fewer chunks than expensive ones. *)
  let cheap = Sim.doall_chunk_count c ~threads:4 ~n:1000 in
  let expensive =
    Sim.doall_chunk_count
      { c with Sim.w_iter = c.Sim.w_iter *. 100.0 }
      ~threads:4 ~n:1000
  in
  Alcotest.(check bool) "cost-proportional" true (expensive >= cheap)

let test_doall_chunk_ranges () =
  (* Chunk ranges tile [0, n) exactly, in order, with no empty chunk. *)
  List.iter
    (fun (k, n) ->
      let ranges = Exec.doall_chunks ~chunks:k n in
      let expected_k = if n = 0 then 0 else min (max 1 k) n in
      Alcotest.(check int)
        (Printf.sprintf "k=%d n=%d: chunk count" k n)
        expected_k (List.length ranges);
      let pos = ref 0 in
      List.iter
        (fun (off, len) ->
          Alcotest.(check int) "contiguous" !pos off;
          Alcotest.(check bool) "non-empty" true (len > 0);
          pos := !pos + len)
        ranges;
      Alcotest.(check int) "complete" n !pos)
    [ (1, 0); (4, 0); (1, 7); (3, 7); (7, 7); (12, 7); (0, 5); (-2, 5); (8, 64) ]

(* ------------------------------------------------------------------ *)
(* Workers: the one domain pool                                        *)

module Workers = Runtime.Workers

let test_workers_results_in_order () =
  let w = Workers.create ~domains:3 in
  let r = Workers.run w (Array.init 10 (fun i () -> i * i)) in
  Workers.shutdown w;
  Alcotest.(check (array int)) "in order" (Array.init 10 (fun i -> i * i)) r

let test_workers_reuse_no_respawn () =
  let w = Workers.create ~domains:4 in
  Alcotest.(check int) "spawned = domains - 1" 3 (Workers.spawned w);
  for k = 1 to 50 do
    let r = Workers.run w (Array.init 8 (fun i () -> i + k)) in
    Alcotest.(check int) "sum" ((8 * k) + 28) (Array.fold_left ( + ) 0 r)
  done;
  Alcotest.(check int) "no respawn across 50 runs" 3 (Workers.spawned w);
  Workers.shutdown w

let test_workers_pool_of_one () =
  let w = Workers.create ~domains:1 in
  Alcotest.(check int) "nothing spawned" 0 (Workers.spawned w);
  let r = Workers.run w (Array.init 5 (fun i () -> 2 * i)) in
  Alcotest.(check (array int)) "caller drains alone" [| 0; 2; 4; 6; 8 |] r;
  Workers.shutdown w

let test_workers_oversubscription () =
  (* far more thunks than domains: everything still runs exactly once *)
  let w = Workers.create ~domains:2 in
  let r = Workers.run w (Array.init 100 (fun i () -> i)) in
  Alcotest.(check int) "all jobs ran" (100 * 99 / 2)
    (Array.fold_left ( + ) 0 r);
  Workers.shutdown w

exception Boom

let test_workers_exception_propagates () =
  let w = Workers.create ~domains:2 in
  (match Workers.run w [| (fun () -> 1); (fun () -> raise Boom) |] with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom -> ());
  (* the pool survives a failed call *)
  let r = Workers.run w [| (fun () -> 3); (fun () -> 4) |] in
  Alcotest.(check (array int)) "pool survives" [| 3; 4 |] r;
  Workers.shutdown w

let test_workers_shutdown_idempotent_and_post_run () =
  let w = Workers.create ~domains:3 in
  ignore (Workers.run w (Array.init 4 (fun i () -> i)));
  Workers.shutdown w;
  Workers.shutdown w;
  (* a run after shutdown still completes: the caller drains its own jobs *)
  let r = Workers.run w (Array.init 4 (fun i () -> i + 1)) in
  Alcotest.(check (array int)) "post-shutdown run" [| 1; 2; 3; 4 |] r;
  Alcotest.(check int) "domains unchanged" 3 (Workers.domains w)

let test_workers_telemetry_consistency () =
  (* jobs = stolen + caller must hold over the diff of any quiescent
     window, whatever the 4-domain queue race decided; every queued job
     contributes one queue-wait observation. *)
  let before = Obs.Metrics.snapshot () in
  let w = Workers.create ~domains:4 in
  let total = Atomic.make 0 in
  for _ = 1 to 5 do
    ignore
      (Workers.run w
         (Array.init 8 (fun i () -> Atomic.fetch_and_add total i)))
  done;
  Workers.shutdown w;
  let d =
    Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ())
  in
  let c name = Option.value ~default:0 (List.assoc_opt name d.Obs.Metrics.counters) in
  Alcotest.(check int) "every thunk counted" 40 (c "runtime.workers.jobs");
  Alcotest.(check int) "jobs = stolen + caller"
    (c "runtime.workers.jobs")
    (c "runtime.workers.jobs_stolen" + c "runtime.workers.jobs_caller");
  Alcotest.(check bool) "caller ran at least its first thunks" true
    (c "runtime.workers.jobs_caller" >= 5);
  let queued =
    List.assoc_opt "runtime.workers.queue_wait_us" d.Obs.Metrics.histograms
  in
  (match queued with
  | None -> Alcotest.fail "no queue-wait observations"
  | Some h ->
      (* 5 runs × 7 queued jobs (the first thunk never queues) *)
      Alcotest.(check int) "one wait per queued job" 35
        h.Obs.Histogram.count);
  Alcotest.(check int) "all thunks really ran" (5 * (8 * 7 / 2))
    (Atomic.get total)

let test_workers_admitted_job_runs_phase () =
  (* An admitted job calling [run] completes while every other helper is
     busy with another admitted job and more are queued behind it: its
     caller drains barrier jobs only, so it never picks up (and blocks
     on) a queued request. *)
  List.iter
    (fun domains ->
      let w = Workers.serving ~queue_capacity:16 ~domains in
      let release = Atomic.make false and started = Atomic.make 0 in
      let block () =
        Atomic.incr started;
        while not (Atomic.get release) do
          Unix.sleepf 0.001
        done
      in
      for _ = 2 to domains do
        Workers.submit w block
      done;
      while Atomic.get started < domains - 1 do
        Domain.cpu_relax ()
      done;
      let result = Atomic.make None in
      Workers.submit w (fun () ->
          Atomic.set result (Some (Workers.run w (Array.init 8 (fun i () -> i)))));
      for _ = 1 to domains do
        Workers.submit w block
      done;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Atomic.get result = None && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      let got = Atomic.get result in
      Atomic.set release true;
      Workers.shutdown w;
      Alcotest.(check (option (array int)))
        (Printf.sprintf "phase done within 10 s at %d domains" domains)
        (Some (Array.init 8 Fun.id))
        got)
    [ 1; 2; 4 ]

let test_workers_caller_skips_admitted () =
  (* The helper takes the caller's second thunk, which admits a job and
     stays busy for a while.  The caller, done with its first thunk, finds
     the barrier queue empty: it must wait at its barrier rather than run
     the admitted job on its own stack. *)
  let w = Workers.serving ~queue_capacity:4 ~domains:1 in
  let submitted = Atomic.make false and ran_on = Atomic.make None in
  let r =
    Workers.run w
      [|
        (fun () ->
          while not (Atomic.get submitted) do
            Domain.cpu_relax ()
          done;
          0);
        (fun () ->
          Workers.submit w (fun () -> Atomic.set ran_on (Some (Domain.self ())));
          Atomic.set submitted true;
          Unix.sleepf 0.05;
          1);
      |]
  in
  Workers.shutdown w;
  Alcotest.(check (array int)) "run completes" [| 0; 1 |] r;
  match Atomic.get ran_on with
  | None -> Alcotest.fail "admitted job never ran"
  | Some d ->
      Alcotest.(check bool) "ran on the helper, not the caller" true
        ((d :> int) <> (Domain.self () :> int))

let test_exec_degenerate_threads () =
  (* threads ≤ 0 must clamp to sequential execution, not crash or spawn. *)
  let prog = List.assoc "vecadd" Loopir.Builtin.corpus in
  let params = [ ("n", 4) ] in
  let tr = Trace.build prog ~params in
  let sched = Sched.sequential_of_trace tr in
  let env = Interp.prepare prog ~params in
  List.iter
    (fun threads ->
      match Exec.check env ~threads sched with
      | Ok () -> ()
      | Error m ->
          Alcotest.fail (Printf.sprintf "threads=%d: %s" threads m))
    [ 0; -1 ]

let test_thread_loads_overflow () =
  (* A phase that used more buckets than [threads] must fold the overflow
     into the last slot rather than silently dropping those loads
     (regression: loads were dropped when stats were taken with a larger
     effective thread count). *)
  let stat loads =
    {
      Exec.label = "p";
      n_instances = Array.fold_left ( + ) 0 loads;
      n_units = Array.length loads;
      loads;
      busy = Array.map (fun _ -> 0.0) loads;
      alloc = Array.map (fun _ -> 0.0) loads;
      seconds = 0.0;
    }
  in
  let timed =
    {
      Exec.store = Arrays.create ();
      seconds = 0.0;
      phase_stats = [ stat [| 1; 2; 3; 4; 5 |]; stat [| 10 |] ];
    }
  in
  Alcotest.(check (array int))
    "overflow folds into last slot" [| 11; 14 |]
    (Exec.thread_loads timed ~threads:2);
  Alcotest.(check (array int))
    "exact fit untouched" [| 11; 2; 3; 4; 5 |]
    (Exec.thread_loads timed ~threads:5);
  (* End to end: run a many-task schedule sequentially, then ask for the
     loads at the parallel thread count — nothing may be lost. *)
  let env, sched =
    rec_schedule Loopir.Builtin.example2 [ ("n", 12) ] [| 12 |]
  in
  let tmd = Exec.run_timed env ~threads:1 sched in
  let total = Array.fold_left ( + ) 0 (Exec.thread_loads tmd ~threads:4) in
  Alcotest.(check int) "all instances accounted for" (12 * 12) total

let test_run_timed_busy_arrays () =
  (* busy is aligned with loads and never negative; sequential runs report
     exactly one slot. *)
  let env, sched =
    rec_schedule Loopir.Builtin.example1
      [ ("n1", 10); ("n2", 10) ]
      [| 10; 10 |]
  in
  List.iter
    (fun threads ->
      let tmd = Exec.run_timed env ~threads sched in
      List.iter
        (fun (ps : Exec.phase_stat) ->
          if threads = 1 then
            Alcotest.(check int) "one busy slot" 1 (Array.length ps.Exec.busy);
          Array.iter
            (fun b ->
              Alcotest.(check bool) "busy >= 0" true (b >= 0.0))
            ps.Exec.busy;
          Alcotest.(check bool) "busy within phase wall" true
            (Array.fold_left max 0.0 ps.Exec.busy
            <= ps.Exec.seconds +. 1e-3))
        tmd.Exec.phase_stats)
    [ 1; 4 ]

let test_phase_alloc_minor_words () =
  (* At t=1 every chunk runs on the calling domain, so the per-phase
     allocation (a [Gc.minor_words] delta per domain) must fit inside the
     delta taken around the whole call.  Both kernels box their float
     results today, so the sum is also non-zero: a counter that lags
     until the next minor collection would read 0 here.  When the
     kernels stop allocating, ROADMAP item 2's exactly-0 check replaces
     the "> 0" half. *)
  let cases =
    [
      ( "example1",
        rec_schedule Loopir.Builtin.example1
          [ ("n1", 30); ("n2", 50) ]
          [| 30; 50 |] );
      ( "nonaffine",
        let tr = Trace.build nonaffine ~params:[] in
        (Interp.prepare nonaffine ~params:[], Sched.sequential_of_trace tr) );
    ]
  in
  List.iter
    (fun (name, (env, sched)) ->
      let w0 = Gc.minor_words () in
      let tmd = Exec.run_timed env ~threads:1 sched in
      let around = Gc.minor_words () -. w0 in
      let phases =
        List.fold_left
          (fun acc (ps : Exec.phase_stat) ->
            acc +. Array.fold_left ( +. ) 0.0 ps.Exec.alloc)
          0.0 tmd.Exec.phase_stats
      in
      Alcotest.(check bool) (name ^ ": phase alloc > 0") true (phases > 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: phase alloc %.0f <= call delta %.0f" name phases
           around)
        true (phases <= around))
    cases

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "runtime"
    [
      ( "arrays",
        [
          Alcotest.test_case "extents and values" `Quick test_arrays_basic;
          Alcotest.test_case "equality" `Quick test_arrays_equal;
          Alcotest.test_case "seeded cells, ranks 0-3" `Quick
            test_arrays_seeding;
        ] );
      ( "interp",
        [
          Alcotest.test_case "memoized scan ≡ fresh scan, unaliased" `Quick
            test_scan_memo_hit;
          Alcotest.test_case "failed scan not memoized" `Quick
            test_scan_failure_not_memoized;
          Alcotest.test_case "racing first scans agree" `Quick
            test_scan_first_call_race;
          Alcotest.test_case "prefix sum semantics" `Quick
            test_interp_prefix_sum;
          Alcotest.test_case "sequential schedule ≡ program" `Quick
            test_interp_schedule_equivalence_fig2;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "REC semantics (ex1)" `Quick
            test_rec_schedule_semantics_ex1;
          Alcotest.test_case "REC semantics (ex2)" `Quick
            test_rec_schedule_semantics_ex2;
          Alcotest.test_case "dataflow fronts (cholesky)" `Quick
            test_fronts_schedule_cholesky;
          Alcotest.test_case "illegal schedule detected" `Quick
            test_illegal_schedule_detected;
          Alcotest.test_case "duplicate instance detected" `Quick
            test_duplicate_instance_detected;
          Alcotest.test_case "cross-task duplicate detected" `Quick
            test_duplicate_across_tasks_detected;
          Alcotest.test_case "same-phase edge violation detected" `Quick
            test_edge_violation_same_doall_detected;
        ] );
      ( "sim",
        [
          Alcotest.test_case "LPT makespan" `Quick test_lpt_makespan;
          Alcotest.test_case "speedup monotone in threads" `Quick
            test_sim_speedup_monotone;
          Alcotest.test_case "code factor" `Quick test_sim_code_factor;
          Alcotest.test_case "pipeline model" `Quick test_pipeline_time;
        ] );
      ( "exec",
        [
          Alcotest.test_case "domains ≡ sequential (ex1)" `Quick
            test_exec_parallel_matches_sequential;
          Alcotest.test_case "domains ≡ sequential (cholesky fronts)" `Quick
            test_exec_fronts_parallel;
          Alcotest.test_case "determinism at 1/2/4/8 threads" `Quick
            test_exec_determinism_paper_examples;
          Alcotest.test_case "compiled ≡ interp (paper examples, 1/2/4)"
            `Quick test_compiled_matches_interp_examples;
          Alcotest.test_case "compiled ≡ interp (full corpus)" `Quick
            test_compiled_matches_interp_corpus;
          Alcotest.test_case "cost-proportional chunk count bounds" `Quick
            test_doall_chunk_count_bounds;
          Alcotest.test_case "DOALL chunk ranges tile exactly" `Quick
            test_doall_chunk_ranges;
          Alcotest.test_case "degenerate thread counts" `Quick
            test_exec_degenerate_threads;
          Alcotest.test_case "thread_loads overflow folding" `Quick
            test_thread_loads_overflow;
          Alcotest.test_case "busy arrays" `Quick test_run_timed_busy_arrays;
          Alcotest.test_case "phase alloc is exact minor words (t=1)" `Quick
            test_phase_alloc_minor_words;
        ] );
      ( "workers",
        [
          Alcotest.test_case "results in submission order" `Quick
            test_workers_results_in_order;
          Alcotest.test_case "pool reuse spawns once" `Quick
            test_workers_reuse_no_respawn;
          Alcotest.test_case "pool of one" `Quick test_workers_pool_of_one;
          Alcotest.test_case "over-subscription" `Quick
            test_workers_oversubscription;
          Alcotest.test_case "exception propagation" `Quick
            test_workers_exception_propagates;
          Alcotest.test_case "shutdown idempotent, post-shutdown run" `Quick
            test_workers_shutdown_idempotent_and_post_run;
          Alcotest.test_case "telemetry counters consistent on 4 domains"
            `Quick test_workers_telemetry_consistency;
          Alcotest.test_case "admitted job runs a phase, helpers busy" `Quick
            test_workers_admitted_job_runs_phase;
          Alcotest.test_case "run caller never runs an admitted job" `Quick
            test_workers_caller_skips_admitted;
        ] );
    ]
