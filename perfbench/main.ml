(* The benchmark's one command: runs one workload, checks its outputs and
   prints every metric with its unit, then one JSON line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test

   Workloads: pipeline-rec, pipeline-cholesky (runnable, not listed in
   BENCHMARK.json; see README.md), exec-hot, svc-mix.  With
   --trace 0 the JSON carries the end-to-end metrics; with --trace 1 the
   per-layer ones, from spans written to .perfbench/ as Chrome JSON. *)

let workloads = [ "pipeline-rec"; "pipeline-cholesky"; "exec-hot"; "svc-mix" ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1  |  main.exe --self-test");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let self_test = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: r -> workload := w; parse r
    | "--seed" :: n :: r -> seed := int_of_string n; parse r
    | "--seconds" :: s :: r -> seconds := float_of_string s; parse r
    | "--trace" :: t :: r -> trace := t = "1"; parse r
    | "--self-test" :: r -> self_test := true; parse r
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let log = Check.log () in
  Host.print_facts ();
  Selftest.run log;
  if !self_test then begin
    Printf.printf "self-test: %d checks, %d failed\n" log.attempted log.failed;
    exit (if log.failed = 0 then 0 else 1)
  end;
  if not (List.mem !workload workloads) then usage ();
  Printf.printf "workload: %s  seed: %d  seconds: %g  trace: %b  threads: %s\n%!"
    !workload !seed !seconds !trace (Host.threads_label 2);
  let out = Out.create () in
  let trace_path =
    Printf.sprintf ".perfbench/trace-%s-seed%d.json" !workload !seed
  in
  let seconds = !seconds and trace = !trace in
  (try
     match !workload with
     | "pipeline-rec" ->
         Wl_pipeline.run ~progs:Paper.rec_programs ~seconds ~trace ~trace_path out log
     | "pipeline-cholesky" ->
         Wl_pipeline.run ~progs:[ Paper.cholesky ] ~seconds ~trace ~trace_path out log
     | "exec-hot" -> Wl_exec.run ~progs:Paper.all ~seconds ~trace ~trace_path out log
     | _ -> Wl_svc.run ~seed:!seed ~seconds ~trace ~trace_path out log
   with e ->
     Check.note log ~what:!workload [ "aborted: " ^ Printexc.to_string e ]);
  Out.set out "fail_ratio" (Check.fail_ratio log)
    ~note:(Printf.sprintf "%d failed / %d attempted" log.failed log.attempted);
  Out.print_table out;
  Out.emit out ~trace log
