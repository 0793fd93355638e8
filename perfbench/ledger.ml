(* The traced run's span store.  Spans are recorded from the benchmark's
   own files, around calls into the program's public functions, on an
   explicit Obs.Sink that is never installed as ambient and never handed
   to the program, so the span sites inside lib/ stay off.

   Every span carries its own id, its parent's id (0 for the root span of
   an operation: a pass or a request) and the operation's id.  A span's
   self time is its duration minus its children's; the ledger sums self
   times per span name, and the root spans' self times form the
   "unattributed" row, so the rows add up to the traced wall exactly. *)

type t = { sink : Obs.Sink.t; lock : Mutex.t; mutable next : int }
type span = { id : int; parent : int; op : string; start_ns : int64 }

let create () = { sink = Obs.Sink.make (); lock = Mutex.create (); next = 1 }

let fresh t =
  Mutex.protect t.lock (fun () ->
      let i = t.next in
      t.next <- i + 1;
      i)

let record t ?(tid = 0) ~name s ~stop_ns =
  let sp =
    {
      Obs.Sink.name;
      args =
        [
          ("id", string_of_int s.id);
          ("parent", string_of_int s.parent);
          ("op", s.op);
        ];
      tid;
      start_ns = s.start_ns;
      dur_ns = Int64.max 0L (Int64.sub stop_ns s.start_ns);
      depth = (if s.parent = 0 then 0 else 1);
    }
  in
  Mutex.protect t.lock (fun () -> Obs.Sink.record t.sink sp)

let root ?(start_ns = Obs.Clock.now_ns ()) t ~op =
  { id = fresh t; parent = 0; op; start_ns }

let under t (p : span) =
  { id = fresh t; parent = p.id; op = p.op; start_ns = Obs.Clock.now_ns () }

(* [with_ t p ~name f] runs [f] in a span under [p]; [f] receives the
   span so it can place synthesized children inside it. *)
let with_ t p ~name f =
  let s = under t p in
  let r = f s in
  record t ~name s ~stop_ns:(Obs.Clock.now_ns ());
  r

(* A child whose interval was measured by the program itself (a phase
   wall from run_timed, a queue time from a response), placed inside its
   parent by the caller. *)
let synth t ?tid (p : span) ~name ~start_ns ~dur_ns =
  let s = { id = fresh t; parent = p.id; op = p.op; start_ns } in
  record t ?tid ~name s ~stop_ns:(Int64.add start_ns dur_ns);
  s

(* ---- analysis ---------------------------------------------------------- *)

type node = { nid : int; npar : int; nop : string; name : string; dur : int64 }

let arg k (s : Obs.Sink.span) = List.assoc k s.Obs.Sink.args

let nodes_of_spans spans =
  List.map
    (fun (s : Obs.Sink.span) ->
      {
        nid = int_of_string (arg "id" s);
        npar = int_of_string (arg "parent" s);
        nop = arg "op" s;
        name = s.Obs.Sink.name;
        dur = s.Obs.Sink.dur_ns;
      })
    spans

let nodes t = nodes_of_spans (Obs.Sink.spans t.sink)

(* (node, self ns) for every node. *)
let selves nodes =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun n ->
      if n.npar <> 0 then
        Hashtbl.replace kids n.npar
          (Int64.add n.dur
             (Option.value (Hashtbl.find_opt kids n.npar) ~default:0L)))
    nodes;
  List.map
    (fun n ->
      (n, Int64.sub n.dur (Option.value (Hashtbl.find_opt kids n.nid) ~default:0L)))
    nodes

let unattributed = "unattributed"

(* Rows (name, self ns), largest first, with the roots' self time as the
   "unattributed" row; and the traced wall (Σ root durations). *)
let rows nodes =
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (n, self) ->
      let k = if n.npar = 0 then unattributed else n.name in
      Hashtbl.replace acc k
        (Int64.add self (Option.value (Hashtbl.find_opt acc k) ~default:0L)))
    (selves nodes);
  let wall =
    List.fold_left
      (fun a n -> if n.npar = 0 then Int64.add a n.dur else a)
      0L nodes
  in
  let rows = Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] in
  (List.sort (fun (_, a) (_, b) -> Int64.compare b a) rows, wall)

let sums (rows, wall) =
  Int64.equal wall (List.fold_left (fun a (_, v) -> Int64.add a v) 0L rows)

(* What a broken placement would produce: a span whose parent was never
   recorded, a span whose children overrun it (negative self time), or
   rows that do not add up to the traced wall. *)
let problems nodes =
  let ids = Hashtbl.create 1024 in
  List.iter (fun n -> Hashtbl.replace ids n.nid ()) nodes;
  let orphans =
    List.filter (fun n -> n.npar <> 0 && not (Hashtbl.mem ids n.npar)) nodes
  in
  let overrun = List.filter (fun (_, self) -> self < 0L) (selves nodes) in
  List.map
    (fun n -> Printf.sprintf "span %d (%s) has no parent %d" n.nid n.name n.npar)
    orphans
  @ List.map
      (fun (n, self) ->
        Printf.sprintf "span %d (%s): children overrun it by %Ld ns" n.nid n.name
          (Int64.neg self))
      overrun
  @ if sums (rows nodes) then [] else [ "ledger rows do not sum to the traced wall" ]

(* Per operation: Σ durations of the spans named [name], in ms. *)
let per_op_ms nodes ~name =
  let ops = Hashtbl.create 64 in
  List.iter
    (fun n ->
      if n.npar = 0 then Hashtbl.replace ops n.nop 0L)
    nodes;
  List.iter
    (fun n ->
      if n.name = name && n.npar <> 0 then
        Hashtbl.replace ops n.nop
          (Int64.add n.dur (Option.value (Hashtbl.find_opt ops n.nop) ~default:0L)))
    nodes;
  Hashtbl.fold (fun _ v l -> (Int64.to_float v *. 1e-6) :: l) ops []

(* Per operation: the root's self time, in ms. *)
let unattributed_per_op nodes =
  List.filter_map
    (fun (n, self) ->
      if n.npar = 0 then Some (Int64.to_float self *. 1e-6) else None)
    (selves nodes)

let print_rows (rows, wall) =
  let wall_ms = Int64.to_float wall *. 1e-6 in
  Printf.printf "ledger (self time; traced wall %.3f ms):\n" wall_ms;
  List.iter
    (fun (k, v) ->
      let v = Int64.to_float v *. 1e-6 in
      Printf.printf "  %-28s %12.3f ms  %5.1f%%\n" k v
        (if wall_ms > 0.0 then 100.0 *. v /. wall_ms else 0.0))
    rows;
  Printf.printf "  %-28s %12.3f ms  (rows sum to the traced wall: %b)\n" "total"
    (List.fold_left (fun a (_, v) -> a +. (Int64.to_float v *. 1e-6)) 0.0 rows)
    (sums (rows, wall))

let write_chrome t ~path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.Trace.to_chrome_json ~process:"perfbench" t.sink))

(* End of a traced run: print the ledger, check it, and write the spans
   once as Chrome trace JSON. *)
let finish t ~path log =
  let nodes = nodes t in
  print_rows (rows nodes);
  Check.note log ~what:"ledger" (problems nodes);
  write_chrome t ~path;
  Printf.printf "trace: %s (%d spans)\n" path (List.length nodes)
