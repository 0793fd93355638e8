(* Metric names and units, the human-readable table and the one-line
   JSON result the benchmark ends with. *)

let e2e =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("kernel_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    (* whole-workload figures, under the names later changes refer to *)
    ("pipeline_s", "s");
    ("exec_call_ms", "ms");
    ("kernel_t1_ms", "ms");
    ("kernel_t2_ms", "ms");
    ("seq_kernel_ms", "ms");
    ("speedup_t2", "x");
    ("req_per_s", "1/s");
    ("req_p50_ms", "ms");
    ("req_p99_ms", "ms");
    ("fail_ratio", "ratio");
    (* pipeline stages *)
    ("loopir.parse_ms", "ms");
    ("pipeline.classify_ms", "ms");
    ("presburger.omega_calls", "count");
    ("core.materialize_ms", "ms");
    ("core.materialize_mwords", "Mwords");
    ("runtime.schedule_ms", "ms");
    ("pipeline.predict_ms", "ms");
    ("depend.trace_ms", "ms");
    ("depend.trace_mwords", "Mwords");
    ("runtime.check_legal_ms", "ms");
    ("runtime.oracle_ms", "ms");
    ("runtime.compare_ms", "ms");
    ("runtime.exec_call_ms", "ms");
    ("gc.minor", "count");
    ("gc.major", "count");
    (* executor *)
    ("runtime.store_ms", "ms");
    ("runtime.compile_ms", "ms");
    ("exec.t1.doall_ms", "ms");
    ("exec.t2.doall_ms", "ms");
    ("exec.t1.tasks_ms", "ms");
    ("exec.t2.tasks_ms", "ms");
    ("exec.t2.idle_pct", "%");
    ("exec.t2.units", "count");
    ("exec.barriers", "count");
    ("exec.t1.alloc_kwords", "kwords");
    ("exec.t2.alloc_kwords", "kwords");
    (* service *)
    ("svc.hot.rtt_ms", "ms");
    ("svc.disk.rtt_ms", "ms");
    ("svc.fresh.rtt_ms", "ms");
    ("svc.queue_ms", "ms");
    ("svc.hot.run_ms", "ms");
    ("svc.disk.run_ms", "ms");
    ("svc.fresh.run_ms", "ms");
    ("net.hot.overhead_ms", "ms");
    ("net.socket_gap_x", "x");
    ("svc.run_one_hot_us", "us");
    ("svc.proto.parse_us", "us");
    ("svc.key.digest_us", "us");
    ("svc.proto.encode_us", "us");
    ("svc.cache.hit_ratio", "ratio");
    ("svc.store.hits", "count");
    ("svc.store.appends", "count");
    ("svc.shed", "count");
    (* the ledger *)
    ("unattributed_ms", "ms");
    ("trace_gap_pct", "%");
  ]

let name_ok n =
  n <> ""
  && String.length n <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       n

type t = { mutable vals : (string * (float * string)) list }

let create () = { vals = [] }

(* [note] says what the value is a median of, or its bases. *)
let set t ?(note = "") name v =
  if not (List.mem_assoc name (e2e @ per_layer)) then
    invalid_arg ("Out.set: undeclared metric " ^ name);
  t.vals <- (name, (v, note)) :: List.remove_assoc name t.vals

let get t name = Option.map fst (List.assoc_opt name t.vals)

let print_table t =
  let section title names =
    Printf.printf "%s:\n" title;
    List.iter
      (fun (n, u) ->
        match List.assoc_opt n t.vals with
        | None -> ()
        | Some (v, note) ->
            Printf.printf "  %-26s %14.6g %-6s %s\n" n v u note)
      names
  in
  section "end-to-end" e2e;
  section "per-layer" per_layer

let number v = Printf.sprintf "%.17g" v

(* The last stdout line.  End-to-end metrics must all be measured and
   positive; a per-layer metric the workload does not exercise reads 0. *)
let emit t ~trace (log : Check.log) =
  let names = if trace then per_layer else e2e in
  let missing = ref [] in
  let fields =
    List.map
      (fun (n, u) ->
        let v =
          match get t n with
          | Some v when Float.is_finite v && (trace || v > 0.0) -> v
          | _ ->
              if not trace then missing := n :: !missing;
              0.0
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number v) u)
      names
  in
  List.iter
    (fun n -> Printf.printf "CHECK FAILED metric %s was not measured\n" n)
    (List.rev !missing);
  let correct = log.Check.failed = 0 && !missing = [] in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 log.Check.attempted) log.Check.failed
    (String.concat ", " fields)
