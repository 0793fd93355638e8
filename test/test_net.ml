(* Tests for the socket front-end: address parsing, JSONL framing edge
   cases (partial line across reads, several lines in one read,
   oversized line discarded without losing framing, CRLF, EOF with an
   unterminated tail), and the server end to end over a Unix socket —
   pipelined requests answered in request order, cache hits across a
   connection, oversized requests as typed bad-request records on a
   still-usable connection, load shedding under a saturated queue, and
   graceful drain. *)

module Addr = Net.Addr
module Frame = Net.Frame
module Server = Net.Server
module Client = Net.Client
module Proto = Svc.Proto
module Service = Svc.Service
module Json = Pipeline.Json

let temp_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o700;
    d

(* ------------------------------------------------------------------ *)
(* Addr                                                                 *)

let test_addr_parse () =
  (match Addr.parse "unix:/tmp/x.sock" with
  | Ok (Addr.Unix_sock p) -> Alcotest.(check string) "unix path" "/tmp/x.sock" p
  | _ -> Alcotest.fail "unix form");
  (match Addr.parse "tcp:127.0.0.1:8080" with
  | Ok (Addr.Tcp { host; port }) ->
      Alcotest.(check string) "host" "127.0.0.1" host;
      Alcotest.(check int) "port" 8080 port
  | _ -> Alcotest.fail "tcp form");
  (match Addr.parse "localhost:0" with
  | Ok (Addr.Tcp { host; port }) ->
      Alcotest.(check string) "shorthand host" "localhost" host;
      Alcotest.(check int) "shorthand port" 0 port
  | _ -> Alcotest.fail "host:port shorthand");
  List.iter
    (fun bad ->
      match Addr.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" bad))
    [ "nonsense"; "tcp:noport"; "host:99999"; ":123"; "tcp:h:x" ]

(* ------------------------------------------------------------------ *)
(* Frame                                                                *)

let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_all fd s =
  ignore (Unix.write fd (Bytes.of_string s) 0 (String.length s))

let next r = Frame.next r ~timeout_s:5.0

let test_frame_partial_line () =
  with_pair (fun a b ->
      let r = Frame.reader b in
      write_all a "{\"id\":";
      write_all a "\"r1\"";
      write_all a "}\n";
      match next r with
      | Frame.Line l ->
          Alcotest.(check string) "reassembled across reads" "{\"id\":\"r1\"}" l
      | _ -> Alcotest.fail "expected a line")

let test_frame_pipelined_lines () =
  with_pair (fun a b ->
      let r = Frame.reader b in
      write_all a "one\ntwo\r\nthree\n";
      let got =
        List.init 3 (fun _ ->
            match next r with
            | Frame.Line l -> l
            | _ -> Alcotest.fail "expected a line")
      in
      Alcotest.(check (list string))
        "one read, three frames (CRLF tolerated)"
        [ "one"; "two"; "three" ] got)

let test_frame_oversized_keeps_framing () =
  with_pair (fun a b ->
      let r = Frame.reader ~max_line:16 b in
      (* oversized line delivered in several chunks, then a valid one *)
      write_all a (String.make 40 'x');
      write_all a (String.make 40 'y');
      write_all a "\nok\n";
      (match next r with
      | Frame.Too_long n ->
          Alcotest.(check bool) "discarded count covers the line" true (n >= 80)
      | _ -> Alcotest.fail "expected Too_long");
      match next r with
      | Frame.Line l -> Alcotest.(check string) "framing recovered" "ok" l
      | _ -> Alcotest.fail "expected the next line")

let test_frame_eof_drops_tail () =
  with_pair (fun a b ->
      let r = Frame.reader b in
      write_all a "complete\nunterminated";
      Unix.close a;
      (match next r with
      | Frame.Line l -> Alcotest.(check string) "complete line" "complete" l
      | _ -> Alcotest.fail "expected a line");
      (match next r with
      | Frame.Eof -> ()
      | _ -> Alcotest.fail "unterminated tail is not a frame");
      match next r with
      | Frame.Eof -> ()
      | _ -> Alcotest.fail "Eof is sticky")

let test_frame_idle_timeout () =
  with_pair (fun _a b ->
      let r = Frame.reader b in
      match Frame.next r ~timeout_s:0.05 with
      | Frame.Idle_timeout -> ()
      | _ -> Alcotest.fail "expected Idle_timeout")

let test_frame_read_timeout () =
  with_pair (fun a b ->
      let r = Frame.reader b in
      write_all a "partial-without-newline";
      (* let the bytes arrive, then stall *)
      (match Frame.next r ~timeout_s:0.2 with
      | Frame.Read_timeout -> ()
      | Frame.Idle_timeout -> Alcotest.fail "partial line must be Read_timeout"
      | _ -> Alcotest.fail "expected a timeout");
      ())

(* ------------------------------------------------------------------ *)
(* Server                                                               *)

let service_config =
  {
    Service.default_config with
    domains = 2;
    threads = 1;
    check = false;
    measure = false;
  }

let with_server ?(service_config = service_config) ?server_config f =
  let svc = Service.create ~config:service_config () in
  let sock =
    Filename.concat (temp_dir "net") "s.sock"
  in
  let server = Server.start ?config:server_config svc (Addr.Unix_sock sock) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Service.shutdown svc)
    (fun () -> f server (Addr.Unix_sock sock))

let req_line ?(id = "r1") ?(n = 24) () =
  Json.to_string
    (Proto.request_to_json
       (Proto.request ~params:[ ("n", n) ] ~id ~name:"t"
          (Proto.Src "DO i = 1, n\n  A(i) = A(i-1) + 1\nENDDO\n")))

let get_str k j =
  match Json.member k j with Some (Json.Str s) -> s | _ -> "?"

let get_bool k j =
  match Json.member k j with Some (Json.Bool b) -> b | _ -> false

let parse_line line =
  match Json.parse line with Ok j -> j | Error m -> Alcotest.fail m

let test_server_pipelined_in_order () =
  with_server (fun _server addr ->
      let c = Result.get_ok (Client.connect addr) in
      (* pipeline: compute, introspect, duplicate — one write each, no
         reads until all three are in flight *)
      Result.get_ok (Client.send c (req_line ~id:"a" ()));
      Result.get_ok (Client.send c "{\"id\":\"b\",\"mode\":\"metrics\"}");
      Result.get_ok (Client.send c (req_line ~id:"c" ~n:25 ()));
      let r1 = parse_line (Result.get_ok (Client.recv c)) in
      let r2 = parse_line (Result.get_ok (Client.recv c)) in
      let r3 = parse_line (Result.get_ok (Client.recv c)) in
      Alcotest.(check (list string))
        "responses in request order, not completion order"
        [ "a"; "b"; "c" ]
        [ get_str "id" r1; get_str "id" r2; get_str "id" r3 ];
      Alcotest.(check string) "computed ok" "ok" (get_str "status" r1);
      Alcotest.(check string) "introspection ok" "ok" (get_str "status" r2);
      Alcotest.(check string) "second compute ok" "ok" (get_str "status" r3);
      (* with the pipeline settled, a duplicate is a cache hit *)
      let r4 = parse_line (Result.get_ok (Client.call c (req_line ~id:"d" ()))) in
      Alcotest.(check bool) "duplicate answered from cache" true
        (get_bool "cached" r4);
      (* the metrics op sees the server's own gauges *)
      (match Json.member "metrics" r2 with
      | Some m ->
          Alcotest.(check bool) "net.conns gauge exported" true
            (Json.member "gauges" m <> None)
      | None -> Alcotest.fail "metrics body missing");
      Client.close c)

let test_server_bad_and_oversized_keep_connection () =
  let server_config = { Server.default_config with max_line = 512 } in
  with_server ~server_config (fun _server addr ->
      let c = Result.get_ok (Client.connect addr) in
      (* unparsable line -> typed bad-request record *)
      let r = parse_line (Result.get_ok (Client.call c "{not json")) in
      Alcotest.(check string) "parse failure is a record" "error"
        (get_str "status" r);
      Alcotest.(check string) "bad-request kind" "bad-request"
        (get_str "kind" r);
      (* oversized line -> typed record, framing intact *)
      let huge =
        Printf.sprintf "{\"id\":\"big\",\"src\":\"%s\"}" (String.make 4096 'x')
      in
      let r = parse_line (Result.get_ok (Client.call c huge)) in
      Alcotest.(check string) "oversized is a record" "bad-request"
        (get_str "kind" r);
      (* the connection still works *)
      let r = parse_line (Result.get_ok (Client.call c (req_line ~id:"ok" ()))) in
      Alcotest.(check string) "connection survives" "ok" (get_str "status" r);
      Alcotest.(check string) "id" "ok" (get_str "id" r);
      Client.close c)

let test_server_load_shedding () =
  let service_config =
    { service_config with domains = 1; queue_capacity = 1 }
  in
  with_server ~service_config (fun _server addr ->
      let c = Result.get_ok (Client.connect addr) in
      (* burst of distinct requests through a 1-domain, 1-slot queue:
         the reader admits far faster than the worker computes, so most
         of the burst must shed — and every line still gets exactly one
         response, in order *)
      let n = 64 in
      for i = 1 to n do
        Result.get_ok
          (Client.send c (req_line ~id:(Printf.sprintf "r%02d" i) ~n:(i + 1) ()))
      done;
      let shed = ref 0 and ok = ref 0 in
      for i = 1 to n do
        let r = parse_line (Result.get_ok (Client.recv c)) in
        Alcotest.(check string)
          (Printf.sprintf "response %d in order" i)
          (Printf.sprintf "r%02d" i)
          (get_str "id" r);
        match get_str "status" r with
        | "ok" -> incr ok
        | _ ->
            Alcotest.(check string) "typed overloaded record" "overloaded"
              (get_str "kind" r);
            (match Json.member "queue_capacity" r with
            | Some (Json.Int 1) -> ()
            | _ -> Alcotest.fail "overloaded record carries queue state");
            incr shed
      done;
      Alcotest.(check int) "every request answered" n (!shed + !ok);
      Alcotest.(check bool) "saturated queue shed requests" true (!shed > 0);
      Alcotest.(check bool) "admitted requests completed" true (!ok > 0);
      Client.close c)

let test_server_drain () =
  with_server (fun server addr ->
      let c = Result.get_ok (Client.connect addr) in
      let r = parse_line (Result.get_ok (Client.call c (req_line ()))) in
      Alcotest.(check string) "request before drain" "ok" (get_str "status" r);
      Server.drain server;
      (* existing connection: new requests get the drain record *)
      let r = parse_line (Result.get_ok (Client.call c (req_line ~id:"late" ()))) in
      Alcotest.(check string) "drain record" "drain" (get_str "kind" r);
      Alcotest.(check string) "drain record id" "late" (get_str "id" r);
      Server.wait server;
      (* listener is gone: new connections are refused *)
      (match Client.connect addr with
      | Error _ -> ()
      | Ok c2 ->
          (* unix-socket path unlinked means connect must fail; a racing
             success would mean the listener survived the drain *)
          Client.close c2;
          Alcotest.fail "listener still accepting after drain");
      Client.close c)

(* Four clients pipeline the same 12 distinct requests, twice.  The
   queue (capacity 64) holds all 48 in flight, so nothing sheds: a shed
   line would answer [overloaded], not ok.  The first pass answers every
   line ok; on the replay, every line is a cache hit. *)
let test_server_concurrent_clients () =
  with_server (fun _server addr ->
      let per_client = 12 and clients = 4 in
      let pass () =
        let ok = Array.make clients 0 and cached = Array.make clients 0 in
        let worker i =
          let c = Result.get_ok (Client.connect addr) in
          for j = 1 to per_client do
            Result.get_ok
              (Client.send c
                 (req_line ~id:(Printf.sprintf "q%d" j) ~n:(j + 1) ()))
          done;
          for _ = 1 to per_client do
            let r = parse_line (Result.get_ok (Client.recv c)) in
            if get_str "status" r = "ok" then begin
              ok.(i) <- ok.(i) + 1;
              if get_bool "cached" r then cached.(i) <- cached.(i) + 1
            end
          done;
          Client.close c
        in
        let threads = List.init clients (fun i -> Thread.create worker i) in
        List.iter Thread.join threads;
        (ok, Array.fold_left ( + ) 0 cached)
      in
      let check_pass name (ok, _) =
        Array.iteri
          (fun i n ->
            Alcotest.(check int)
              (Printf.sprintf
                 "%s: client %d: every request answered ok, none shed" name i)
              per_client n)
          ok
      in
      let cold = pass () in
      check_pass "cold" cold;
      let warm = pass () in
      check_pass "warm" warm;
      let _, warm_cached = warm in
      Alcotest.(check int) "warm replay: every response cached"
        (clients * per_client) warm_cached;
      (* cross-client duplicates hit the one shared cache *)
      let stats = Obs.Metrics.snapshot () in
      let counter name =
        Option.value ~default:0 (List.assoc_opt name stats.Obs.Metrics.counters)
      in
      Alcotest.(check bool) "shared cache hit across connections" true
        (counter "svc.cache.results.hits" > 0))

let () =
  Alcotest.run "net"
    [
      ("addr", [ Alcotest.test_case "parse" `Quick test_addr_parse ]);
      ( "frame",
        [
          Alcotest.test_case "partial line across reads" `Quick
            test_frame_partial_line;
          Alcotest.test_case "several lines in one read" `Quick
            test_frame_pipelined_lines;
          Alcotest.test_case "oversized line keeps framing" `Quick
            test_frame_oversized_keeps_framing;
          Alcotest.test_case "eof drops unterminated tail" `Quick
            test_frame_eof_drops_tail;
          Alcotest.test_case "idle timeout" `Quick test_frame_idle_timeout;
          Alcotest.test_case "read timeout" `Quick test_frame_read_timeout;
        ] );
      ( "server",
        [
          Alcotest.test_case "pipelined responses in request order" `Quick
            test_server_pipelined_in_order;
          Alcotest.test_case "bad/oversized lines keep the connection" `Quick
            test_server_bad_and_oversized_keep_connection;
          Alcotest.test_case "saturated queue sheds with typed records"
            `Quick test_server_load_shedding;
          Alcotest.test_case "graceful drain" `Quick test_server_drain;
          Alcotest.test_case "concurrent clients share the cache" `Quick
            test_server_concurrent_clients;
        ] );
    ]
