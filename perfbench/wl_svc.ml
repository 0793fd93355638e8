(* svc-mix: request bytes to response bytes.

   Net.Server on a Unix socket in front of Svc.Service (two worker
   domains, one execution thread per request, a durable store), driven
   by a closed loop of two clients: each sends its next line only when
   the previous reply is in, as service callers do.  The lines come from
   Gen.stream. *)

module Json = Pipeline.Json

let clients = 2

let config ?store_dir () =
  { Svc.Service.default_config with domains = 2; threads = 1; store_dir }

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let copy_dir src dst =
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let data = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          output_string oc data))
    (Sys.readdir src)

let member_str k j = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let member_num k j =
  match Json.member k j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* The report facts a response carries. *)
let facts j =
  let report = Json.member "report" j in
  let sub k = Option.bind report (Json.member k) in
  Json.to_string
    (Json.Obj
       (List.filter_map
          (fun (k, v) -> Option.map (fun v -> (k, v)) v)
          [
            ("strategy", Json.member "strategy" j);
            ("survey", Json.member "survey" j);
            ("instances", sub "instances");
            ("phases", sub "phases");
            ("partition", sub "partition");
          ]))

let typed line =
  match Svc.Proto.request_of_line line with
  | Ok r -> r
  | Error e -> failwith ("generated line does not parse: " ^ e.Svc.Proto.message)

(* Facts of in-process responses, by request id; a non-ok one is a
   failure.  Batches of 32 keep only the facts, not the reports. *)
let in_process log ~what svc items =
  let tbl = Hashtbl.create 256 in
  let rec go = function
    | [] -> ()
    | items ->
        let chunk = List.filteri (fun i _ -> i < 32) items in
        let rest = List.filteri (fun i _ -> i >= 32) items in
        List.iter2
          (fun (it : Gen.item) r ->
            Check.note log ~what:(what ^ " " ^ it.id)
              (if Svc.Proto.ok r then [] else [ Svc.Proto.response_to_line r ]);
            Hashtbl.replace tbl it.id (facts (Svc.Proto.response_to_json r)))
          chunk
          (Svc.Service.batch svc (List.map (fun (it : Gen.item) -> typed it.line) chunk));
        go rest
  in
  go items;
  tbl

type server = {
  svc : Svc.Service.t;
  net : Net.Server.t;
  warm : (Gen.key, string) Hashtbl.t;  (** facts of each hot key *)
}

(* Set-up proper: open (and recover) the store, start the server, warm
   the hot keys over the socket. *)
let start log ~store_dir ~addr =
  let svc = Svc.Service.create ~config:(config ~store_dir ()) () in
  let net = Net.Server.start svc addr in
  let warm = Hashtbl.create 32 in
  (match Net.Client.connect addr with
  | Error e -> Check.note log ~what:"warm-up connect" [ e ]
  | Ok c ->
      List.iter2
        (fun key line ->
          let errs =
            match Net.Client.call c line with
            | Error e -> [ e ]
            | Ok resp -> (
                match Json.parse resp with
                | Ok j when member_str "status" j = Some "ok" ->
                    Hashtbl.replace warm key (facts j);
                    []
                | _ -> [ resp ])
          in
          Check.note log ~what:"warm-up" errs)
        Gen.hot_keys Gen.warm_lines;
      Net.Client.close c);
  { svc; net; warm }

let stop s =
  Net.Server.stop s.net;
  Svc.Service.shutdown s.svc

(* Replies are kept until the window ends.  Everything after a reply's
   timing fields repeats on every hit of the same key, so that part is
   shared; the check puts the line back together. *)
let kept_tails : (string, string) Hashtbl.t = Hashtbl.create 1024
let kept_lock = Mutex.create ()

let keep line =
  let marker = "\"run_seconds\":" in
  let n = String.length line and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = marker then String.index_from_opt line (i + m) ','
    else find (i + 1)
  in
  match find 0 with
  | None -> (line, "")
  | Some i ->
      let tail = String.sub line i (n - i) in
      let tail =
        Mutex.protect kept_lock (fun () ->
            match Hashtbl.find_opt kept_tails tail with
            | Some t -> t
            | None ->
                Hashtbl.add kept_tails tail tail;
                tail)
      in
      (String.sub line 0 i, tail)

type sample = {
  item : Gen.item;
  t_send : int64;
  t_recv : int64;
  reply : (string * string, string) result;  (** see [keep] *)
  client : int;
  root : Ledger.span option;  (** live root span of a traced request *)
}

(* The closed loop: [clients] connections, each taking the next line of
   the stream when its previous reply is in, until the deadline.
   [on_count] runs once, when [count] replies are in. *)
let drive ?ledger ~addr ~seconds ~count ~on_count items log =
  let items = Array.of_list items in
  let out = Array.make (Array.length items) None in
  let next = Atomic.make 0 and replies = Atomic.make 0 in
  let deadline = Int64.add (Obs.Clock.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let client k =
    match Net.Client.connect addr with
    | Error e -> Check.note log ~what:(Printf.sprintf "client %d connect" k) [ e ]
    | Ok c ->
        let rec loop () =
          if Obs.Clock.now_ns () < deadline then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < Array.length items then begin
              let item = items.(i) in
              let t_send = Obs.Clock.now_ns () in
              let reply = Net.Client.call c item.Gen.line in
              let t_recv = Obs.Clock.now_ns () in
              (* every other request is traced: its root span is
                 recorded live, on the client's own track *)
              let root =
                match ledger with
                | Some l when i mod 2 = 1 ->
                    let r = Ledger.root l ~start_ns:t_send ~op:item.Gen.id in
                    Ledger.record l ~tid:(k + 1) ~name:"svc.request" r ~stop_ns:t_recv;
                    Some r
                | _ -> None
              in
              out.(i) <- Some { item; t_send; t_recv; reply = Result.map keep reply; client = k + 1; root };
              if Atomic.fetch_and_add replies 1 + 1 = count then on_count ();
              if Result.is_ok reply then loop ()
            end
          end
        in
        loop ();
        Net.Client.close c
  in
  let t0 = Obs.Clock.now_ns () in
  List.iter Thread.join (List.init clients (Thread.create client));
  (Obs.Clock.elapsed_s t0, List.filter_map Fun.id (Array.to_list out))

(* The cache key Svc.Service.run_one computes for a request (its facets
   are built inside run_one, lib/svc/service.ml, and have no public entry
   point).  [check_keys] fails a check when this copy drifts from the
   service's. *)
let service_key (r : Svc.Proto.request) prog =
  let c = config () in
  Svc.Key.of_request ?strategy:r.strategy
    ~extra:
      [
        "mode=" ^ Svc.Proto.mode_name r.mode;
        Printf.sprintf "threads=%d" (Option.value r.threads ~default:c.threads);
        Printf.sprintf "check=%b" c.check;
        Printf.sprintf "measure=%b" c.measure;
        "exec=" ^ Runtime.Exec.engine_name c.exec_engine;
        Printf.sprintf "survey=%b" r.survey;
      ]
    ~params:r.params prog

let program_of (r : Svc.Proto.request) =
  match r.source with
  | Svc.Proto.Src s -> Loopir.Parser.parse ~name:r.name s
  | Svc.Proto.Prog p -> p

(* Every warmed hot key, computed as [service_key] computes it, is in the
   server's store. *)
let check_keys log svc =
  Check.note log ~what:"hot keys in the store"
    (match Svc.Service.store svc with
    | None -> [ "the service has no store" ]
    | Some st ->
        List.filter_map
          (fun line ->
            let r = typed line in
            if Svc.Store.mem st (service_key r (program_of r)) then None
            else Some ("the service stored " ^ r.id ^ " under another key"))
          Gen.warm_lines)

(* Per-call medians, in µs, of the in-process calls a hot request makes
   (traced run only): Service.run_one, and the protocol parse, key digest
   and response encode around it. *)
type micro = { run_one : float; parse : float; digest : float; encode : float }

let micro svc =
  let rounds = 40 in
  let n = float_of_int (List.length Gen.warm_lines) in
  let per_call f = Stat.median (List.init rounds (fun _ ->
      let t0 = Obs.Clock.now_ns () in
      f ();
      Obs.Clock.elapsed_s t0 *. 1e6 /. n))
  in
  let reqs = List.map typed Gen.warm_lines in
  let resps = List.map (Svc.Service.run_one svc) reqs in
  let progs = List.map (fun r -> (r, program_of r)) reqs in
  {
    run_one = per_call (fun () -> List.iter (fun r -> ignore (Svc.Service.run_one svc r)) reqs);
    parse =
      per_call (fun () ->
          List.iter (fun l -> ignore (Svc.Proto.request_of_line l)) Gen.warm_lines);
    digest =
      per_call (fun () ->
          List.iter
            (fun ((r : Svc.Proto.request), p) ->
              ignore (service_key r p))
            progs);
    encode =
      per_call (fun () -> List.iter (fun r -> ignore (Svc.Proto.response_to_line r)) resps);
  }

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.Counter.snapshot ()))

(* Stream length: more lines than two clients get through in [seconds]. *)
let lines_per_second = 700

(* What the metrics need of one reply, parsed and checked once. *)
type reply = {
  s : sample;
  rtt_ms : float;
  queue_ms : float;
  run_ms : float;
  cached : bool;
  shed : bool;  (** an [overloaded] record *)
  kernel_ms : float option;  (** par_seconds of a run that computed *)
}

(* A run response must carry a report whose legality and semantics
   checks both read "ok"; a classify response carries no report, or one
   whose checks read "ok" or "skipped".  Report.check_json writes a
   failed check as the object {"failed": msg}, which is flagged like any
   other value. *)
let verdicts ~mode j =
  let report = Json.member "report" j in
  let verdict k =
    match (Option.bind report (Json.member k), mode) with
    | Some (Json.Str "ok"), _ -> []
    | Some (Json.Str "skipped"), Svc.Proto.Classify -> []
    | None, Svc.Proto.Classify when report = None -> []
    | None, _ -> [ k ^ " missing" ]
    | Some v, _ -> [ Printf.sprintf "%s %s" k (Json.to_string v) ]
  in
  verdict "legality" @ verdict "semantics"

(* The mismatches of one reply against its reference facts, and what the
   metrics need of it. *)
let reply_errors ~expect s =
  let it = s.item in
  match
    Result.bind s.reply (fun (head, tail) ->
        let l = head ^ tail in
        Result.map_error (fun e -> e ^ ": " ^ l) (Json.parse l))
  with
  | Error e -> ([ e ], None)
  | Ok j ->
      let cached = Json.member "cached" j = Some (Json.Bool true) in
      let report = Json.member "report" j in
      let _, _, mode = it.key in
      let f = facts j in
      let errs =
        List.concat
          [
            (if member_str "status" j = Some "ok" then []
             else [ "status: " ^ Json.to_string j ]);
            (if member_str "id" j = Some it.id then [] else [ "id mismatch" ]);
            (if cached = (it.cls <> Gen.Fresh) then []
             else [ Printf.sprintf "cached=%b" cached ]);
            verdicts ~mode j;
            (match expect with
            | Some e when e = f -> []
            | Some e -> [ "facts " ^ f ^ " differ from the reference " ^ e ]
            | None -> [ "no reference facts" ]);
          ]
      in
      let sec k = 1000.0 *. Option.value (member_num k j) ~default:0.0 in
      ( errs,
        Some
          {
            s;
            rtt_ms = Int64.to_float (Int64.sub s.t_recv s.t_send) *. 1e-6;
            queue_ms = sec "queue_seconds";
            run_ms = sec "run_seconds";
            cached;
            shed = member_str "kind" j = Some "overloaded";
            kernel_ms =
              (if cached then None
               else
                 Option.bind report (member_num "par_seconds")
                 |> Option.map (fun x -> 1000.0 *. x));
          } )

let check_reply log ~expect s =
  let errs, r = reply_errors ~expect s in
  Check.note log
    ~what:(Printf.sprintf "%s request %s" (Gen.cls_name s.item.cls) s.item.id)
    errs;
  r

(* The children of a traced request: the server's own queue and run
   times, and the in-process per-call costs of parse, key digest and
   encode, placed in request order inside the round trip. *)
let place_children l m r =
  match r.s.root with
  | None -> ()
  | Some root ->
      let s = r.s in
      let cursor = ref s.t_send in
      let place ?(under = root) ?(cap = s.t_recv) name ms =
        let d =
          Int64.max 0L (Int64.min (Int64.of_float (ms *. 1e6)) (Int64.sub cap !cursor))
        in
        let sp = Ledger.synth l ~tid:s.client under ~name ~start_ns:!cursor ~dur_ns:d in
        cursor := Int64.add !cursor d;
        sp
      in
      ignore (place "svc.proto.parse" (m.parse /. 1000.0));
      ignore (place "svc.queue" r.queue_ms);
      let run_start = !cursor in
      let run = place (Printf.sprintf "svc.%s.run" (Gen.cls_name s.item.cls)) r.run_ms in
      let run_end = !cursor in
      cursor := run_start;
      ignore (place ~under:run ~cap:run_end "svc.key.digest" (m.digest /. 1000.0));
      cursor := run_end;
      ignore (place "svc.proto.encode" (m.encode /. 1000.0))

(* Preparation: an earlier service instance writes the disk keys to
   [archive].  It runs in a child process, so that the memory it takes
   does not count in this process's peak_rss_mb; the facts of its
   responses, by request id, and its check counts come back through
   [facts_file].  No domain is running yet when the process forks. *)
let prepare_archive log ~archive ~facts_file items =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let clog = Check.log () in
          let svc = Svc.Service.create ~config:(config ~store_dir:archive ()) () in
          let tbl =
            Fun.protect ~finally:(fun () -> Svc.Service.shutdown svc) (fun () ->
                in_process clog ~what:"archive" svc items)
          in
          Out_channel.with_open_text facts_file (fun oc ->
              Printf.fprintf oc "%d %d\n" clog.attempted clog.failed;
              Hashtbl.iter (fun id f -> Printf.fprintf oc "%s\t%s\n" id f) tbl);
          0
        with e ->
          Printf.printf "archive preparation: %s\n" (Printexc.to_string e);
          2
      in
      flush_all ();
      Unix._exit code
  | pid -> (
      let status = snd (Unix.waitpid [] pid) in
      let tbl = Hashtbl.create 256 in
      match (status, In_channel.with_open_text facts_file In_channel.input_lines) with
      | Unix.WEXITED 0, counts :: lines ->
          Scanf.sscanf counts "%d %d" (fun a f ->
              log.Check.attempted <- log.Check.attempted + a;
              log.Check.failed <- log.Check.failed + f);
          List.iter
            (fun l ->
              let i = String.index l '\t' in
              Hashtbl.replace tbl (String.sub l 0 i)
                (String.sub l (i + 1) (String.length l - i - 1)))
            lines;
          tbl
      | _ | (exception Sys_error _) ->
          Check.note log ~what:"archive preparation" [ "the preparing process failed" ];
          tbl)

let run ~seed ~seconds ~trace ~trace_path out log =
  let base = Printf.sprintf ".perfbench/svc-%d" (Unix.getpid ()) in
  rm_rf base;
  mkdir_p base;
  Fun.protect ~finally:(fun () -> rm_rf base) @@ fun () ->
  let items =
    Gen.stream ~seed ~length:(int_of_float (Float.ceil seconds) * lines_per_second)
  in
  let archive = Filename.concat base "archive" in
  let disk_ref =
    prepare_archive log ~archive
      ~facts_file:(Filename.concat base "archive-facts")
      (List.filter (fun (it : Gen.item) -> it.cls = Gen.Disk) items)
  in
  let addr = Net.Addr.Unix_sock (Filename.concat base "s.sock") in
  (* Set-up nine times, each on a fresh copy of the archive and a cold
     symbolic memo; the last server is kept. *)
  let setups = ref [] and kept = ref None in
  for k = 1 to 9 do
    Option.iter stop !kept;
    kept := None;
    let store_dir = Filename.concat base (Printf.sprintf "store-%d" k) in
    copy_dir archive store_dir;
    Presburger.Hc.clear_all ();
    Gc.compact ();
    let t0 = Obs.Clock.now_ns () in
    let s = start log ~store_dir ~addr in
    setups := Obs.Clock.elapsed_s t0 :: !setups;
    kept := Some s
  done;
  let server = Option.get !kept in
  let ledger = if trace then Some (Ledger.create ()) else None in
  let hits0 = counter "svc.store.hits" and appends0 = counter "svc.store.appends" in
  (* Peak memory after a fixed number of requests, so that it does not
     track the host's speed (the caches and kept replies grow with every
     request). *)
  let rss_at = 3000 in
  let window, samples =
    drive ?ledger ~addr ~seconds ~count:rss_at
      ~on_count:(fun () -> Host.record_peak_rss out)
      items log
  in
  if Out.get out "peak_rss_mb" = None then Host.record_peak_rss out;
  let hits = counter "svc.store.hits" - hits0
  and appends = counter "svc.store.appends" - appends0 in
  Net.Server.stop server.net;
  check_keys log server.svc;
  let mic = if trace then Some (micro server.svc) else None in
  Svc.Service.shutdown server.svc;
  (* The in-process reference for the fresh requests that were sent. *)
  let fresh_ref =
    let cfg = { (config ()) with check = false; measure = false } in
    let svc = Svc.Service.create ~config:cfg () in
    Fun.protect ~finally:(fun () -> Svc.Service.shutdown svc) (fun () ->
        in_process log ~what:"reference" svc
          (List.filter_map
             (fun s -> if s.item.Gen.cls = Gen.Fresh then Some s.item else None)
             samples))
  in
  let replies =
    List.filter_map
      (fun s ->
        let it = s.item in
        let expect =
          match it.cls with
          | Gen.Hot -> Hashtbl.find_opt server.warm it.key
          | Gen.Disk -> Hashtbl.find_opt disk_ref it.id
          | Gen.Fresh -> Hashtbl.find_opt fresh_ref it.id
        in
        check_reply log ~expect s)
      samples
  in
  (* ---- metrics ---- *)
  let n = List.length samples in
  let rtts = List.map (fun r -> r.rtt_ms) replies in
  let of_class c = List.filter (fun r -> r.s.item.Gen.cls = c) replies in
  let med f l = Stat.median (List.map f l) in
  let cnt c = List.length (of_class c) in
  let cached = List.length (List.filter (fun r -> r.cached) replies) in
  let kernels = List.filter_map (fun r -> r.kernel_ms) replies in
  Out.set out "setup_s" (Stat.median !setups)
    ~note:"median of 9 set-ups (store recovery, server start, 32-key warm-up)";
  Out.set out "op_p50_ms" (Stat.median rtts)
    ~note:(Printf.sprintf "request round trip, median of %d" (List.length rtts));
  let beyond = List.length rtts - int_of_float (Float.ceil (0.99 *. float_of_int (List.length rtts))) in
  Out.set out "kernel_ms" (Stat.median kernels)
    ~note:(Printf.sprintf "par_seconds of fresh run requests, median of %d" (List.length kernels));
  Out.set out "req_per_s" (float_of_int n /. window)
    ~note:(Printf.sprintf "%d requests in %.3f s, %d clients (closed loop)" n window clients);
  Out.set out "req_p50_ms" (Stat.median rtts) ~note:(Printf.sprintf "median of %d" (List.length rtts));
  Out.set out "req_p99_ms" (Stat.percentile 0.99 rtts)
    ~note:(Printf.sprintf "nearest-rank p99 of %d, %d beyond it" (List.length rtts) beyond);
  List.iter
    (fun c ->
      let k = Gen.cls_name c in
      let note = Printf.sprintf "median of %d %s requests" (cnt c) k in
      Out.set out (Printf.sprintf "svc.%s.rtt_ms" k) (med (fun r -> r.rtt_ms) (of_class c)) ~note;
      Out.set out (Printf.sprintf "svc.%s.run_ms" k) (med (fun r -> r.run_ms) (of_class c)) ~note)
    [ Gen.Hot; Gen.Disk; Gen.Fresh ];
  Out.set out "svc.queue_ms" (med (fun r -> r.queue_ms) replies)
    ~note:(Printf.sprintf "median of %d" (List.length replies));
  let hot = of_class Gen.Hot in
  Out.set out "net.hot.overhead_ms"
    (med (fun r -> r.rtt_ms -. r.queue_ms -. r.run_ms) hot)
    ~note:"rtt - queue - run, median over hot requests";
  Out.set out "svc.cache.hit_ratio"
    (float_of_int cached /. float_of_int (max 1 n))
    ~note:(Printf.sprintf "%d cached / %d requests" cached n);
  Out.set out "svc.store.hits" (float_of_int hits)
    ~note:(Printf.sprintf "%d disk requests" (cnt Gen.Disk));
  Out.set out "svc.store.appends" (float_of_int appends)
    ~note:(Printf.sprintf "%d fresh requests" (cnt Gen.Fresh));
  Out.set out "svc.shed" (float_of_int (List.length (List.filter (fun r -> r.shed) replies)))
    ~note:"overloaded records (each also fails the check)";
  match (ledger, mic) with
  | Some l, Some m ->
      Out.set out "svc.run_one_hot_us" m.run_one ~note:"in-process Service.run_one, hot keys";
      Out.set out "svc.proto.parse_us" m.parse ~note:"Proto.request_of_line, hot lines";
      Out.set out "svc.key.digest_us" m.digest ~note:"Key.of_request, hot programs";
      Out.set out "svc.proto.encode_us" m.encode ~note:"Proto.response_to_line, hot responses";
      let hot_rtt_us = 1000.0 *. med (fun r -> r.rtt_ms) hot in
      Out.set out "net.socket_gap_x" (hot_rtt_us /. m.run_one)
        ~note:(Printf.sprintf "svc.hot.rtt %.1f us / svc.run_one_hot %.1f us" hot_rtt_us m.run_one);
      List.iter (place_children l m) replies;
      let nodes = Ledger.nodes l in
      let traced, untraced = List.partition (fun r -> r.s.root <> None) replies in
      Out.set out "unattributed_ms" (Stat.median (Ledger.unattributed_per_op nodes))
        ~note:(Printf.sprintf "root self time per request, median of %d traced requests" (List.length traced));
      let tw = med (fun r -> r.rtt_ms) traced and uw = med (fun r -> r.rtt_ms) untraced in
      Out.set out "trace_gap_pct" (100.0 *. (tw -. uw) /. uw)
        ~note:
          (Printf.sprintf
             "noise floor: traced %.4f ms vs untraced %.4f ms per request (medians); a traced \
              request does no extra work in its round trip, its children are placed afterwards"
             tw uw);
      Ledger.finish l ~path:trace_path log
  | _ -> ()
