(* The output checker.  Runs outside every timed interval; each mismatch
   is printed and counts as one failed operation. *)

type log = { mutable attempted : int; mutable failed : int }

let log () = { attempted = 0; failed = 0 }

(* One checked operation: [errs] are its mismatches. *)
let note log ~what errs =
  log.attempted <- log.attempted + 1;
  if errs <> [] then begin
    log.failed <- log.failed + 1;
    List.iter (fun e -> Printf.printf "CHECK FAILED %s: %s\n%!" what e) errs
  end

let fail_ratio log =
  if log.attempted = 0 then 1.0
  else float_of_int log.failed /. float_of_int log.attempted

(* Partition facts pinned at the paper's sizes. *)
type pinned = {
  instances : int;
  sets : (int * int * int) option;  (** |P1|, |P2|, |P3| *)
  chains : int option;
  fronts : int option;
}

let expect what ~want got =
  match got with
  | Some g when g = want -> []
  | Some g -> [ Printf.sprintf "%s = %d, pinned %d" what g want ]
  | None -> [ Printf.sprintf "%s missing, pinned %d" what want ]

let facts (pinned : pinned) ~instances (st : Pipeline.Report.partition_stats) =
  let open Pipeline.Report in
  List.concat
    [
      expect "instances" ~want:pinned.instances instances;
      (match pinned.sets with
      | None -> []
      | Some (p1, p2, p3) ->
          expect "|P1|" ~want:p1 st.p1
          @ expect "|P2|" ~want:p2 st.p2
          @ expect "|P3|" ~want:p3 st.p3);
      (match pinned.chains with
      | None -> []
      | Some c -> expect "chains" ~want:c st.n_chains);
      (match pinned.fronts with
      | None -> []
      | Some f -> expect "fronts" ~want:f st.n_fronts);
    ]

let passed what = function
  | Pipeline.Report.Passed -> []
  | Pipeline.Report.Failed m -> [ what ^ " failed: " ^ m ]
  | Pipeline.Report.Skipped -> [ what ^ " skipped" ]

let store ~reference s =
  if Runtime.Arrays.equal reference s then []
  else
    [
      Printf.sprintf "store differs from the reference (max |diff| %g)"
        (Runtime.Arrays.max_abs_diff reference s);
    ]
