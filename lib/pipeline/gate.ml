type regression = {
  program : string;
  threads : int;
  what : string;
  baseline : float;
  current : float;
  ratio : float;
}

type outcome = { regressions : regression list; compared : int }

let entries = function
  | Json.Obj _ as doc -> (
      match Json.member "schema_version" doc with
      | Some (Json.Int 2) -> (
          match Json.member "entries" doc with
          | Some (Json.List l) -> Ok l
          | Some _ -> Error "bench document: \"entries\" is not a list"
          | None -> Error "bench document: missing \"entries\"")
      | Some v ->
          Error
            (Printf.sprintf "bench document: unsupported schema_version %s"
               (Json.to_string v))
      | None -> Error "bench document: object without \"schema_version\"")
  | _ -> Error "bench document: expected an object"

let str_member k j =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let int_member k j =
  match Json.member k j with Some (Json.Int n) -> Some n | _ -> None

(* (program, threads) → (stage name → seconds, counter name → value) for
   every run of every entry. *)
let index_runs entry_list =
  List.concat_map
    (fun entry ->
      match (str_member "program" entry, Json.member "runs" entry) with
      | Some program, Some (Json.List runs) ->
          List.filter_map
            (fun run ->
              match int_member "threads" run with
              | None -> None
              | Some threads ->
                  let stages =
                    match Json.member "stages" run with
                    | Some (Json.Obj fields) ->
                        List.filter_map
                          (fun (k, v) ->
                            match v with
                            | Json.Float f -> Some (k, f)
                            | Json.Int n -> Some (k, float_of_int n)
                            | _ -> None)
                          fields
                    | _ -> []
                  in
                  let counters =
                    match
                      Option.bind
                        (Json.member "metrics" run)
                        (Json.member "counters")
                    with
                    | Some (Json.Obj fields) ->
                        List.filter_map
                          (fun (k, v) ->
                            match v with
                            | Json.Int n -> Some (k, float_of_int n)
                            | _ -> None)
                          fields
                    | _ -> []
                  in
                  Some ((program, threads), (stages, counters)))
            runs
      | _ -> [])
    entry_list

(* Noise floors: below these in both documents a value is never flagged. *)
let min_seconds = 0.05
let min_count = 16.0

let check ~threshold_pct ~baseline ~current () =
  match (entries baseline, entries current) with
  | Error e, _ -> Error ("baseline: " ^ e)
  | _, Error e -> Error ("current: " ^ e)
  | Ok base_entries, Ok cur_entries ->
      let base_idx = index_runs base_entries in
      let cur_idx = index_runs cur_entries in
      let factor = 1.0 +. (threshold_pct /. 100.0) in
      let regressions = ref [] in
      let compared = ref 0 in
      let flag (program, threads) what ~base ~cur ~floor =
        incr compared;
        (* Below the floor in both documents the measurement is noise,
           whatever the ratio. *)
        if
          (base >= floor || cur >= floor)
          && base > 0.0
          && cur > base *. factor
        then
          regressions :=
            {
              program;
              threads;
              what;
              baseline = base;
              current = cur;
              ratio = cur /. base;
            }
            :: !regressions
      in
      List.iter
        (fun (key, (base_stages, base_counters)) ->
          match List.assoc_opt key cur_idx with
          | None -> ()
          | Some (cur_stages, cur_counters) ->
              List.iter
                (fun (stage, base) ->
                  match List.assoc_opt stage cur_stages with
                  | None -> ()
                  | Some cur ->
                      flag key ("stage:" ^ stage) ~base ~cur
                        ~floor:min_seconds)
                base_stages;
              List.iter
                (fun (counter, base) ->
                  match List.assoc_opt counter cur_counters with
                  | None -> ()
                  | Some cur ->
                      flag key ("counter:" ^ counter) ~base ~cur
                        ~floor:min_count)
                base_counters)
        base_idx;
      Ok { regressions = List.rev !regressions; compared = !compared }

let to_text ~threshold_pct o =
  let buf = Buffer.create 256 in
  (match o.regressions with
  | [] ->
      Printf.bprintf buf
        "regression gate: PASS (%d comparisons within +%g%% of baseline)\n"
        o.compared threshold_pct
  | rs ->
      Printf.bprintf buf
        "regression gate: FAIL (%d of %d comparisons exceed +%g%%)\n"
        (List.length rs) o.compared threshold_pct;
      List.iter
        (fun r ->
          Printf.bprintf buf
            "  %s t=%d %-28s baseline %g -> current %g  (x%.2f)\n" r.program
            r.threads r.what r.baseline r.current r.ratio)
        rs);
  Buffer.contents buf
