(* Facts about the machine a run measured, printed with every result. *)

let nproc = Domain.recommended_domain_count ()

(* Obs.Clock reads CLOCK_MONOTONIC (time since boot) and only falls back
   to gettimeofday (time since the epoch) when that clock is frozen, so
   the reading's distance from the epoch clock names the source. *)
let clock_source () =
  let mono = Int64.to_float (Obs.Clock.now_ns ()) in
  let epoch = Unix.gettimeofday () *. 1e9 in
  if Float.abs (epoch -. mono) < 3.6e12 then "gettimeofday-fallback"
  else "CLOCK_MONOTONIC"

let threads_label t =
  if t > nproc then Printf.sprintf "%d (oversubscribed: nproc=%d)" t nproc
  else Printf.sprintf "%d" t

(* VmHWM: the peak resident set of this process, which runs one
   workload only.  Read after a fixed amount of work (set-up and three
   passes; for svc-mix, 3000 requests), before the checker's own reference
   computations: the OCaml 5.1 heap is not compacted, so it creeps up
   with every further pass, and a reading after a time-bound number of
   passes would track the host's speed.  Falls back to the GC's top heap
   size off Linux. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf
                (String.sub l 6 (String.length l - 6))
                " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.0))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

let record_peak_rss out =
  Out.set out "peak_rss_mb" (peak_rss_mb ()) ~note:"VmHWM of this process"

let print_facts () =
  Printf.printf "host: nproc=%d ocaml=%s clock=%s\n" nproc Sys.ocaml_version
    (clock_source ())
