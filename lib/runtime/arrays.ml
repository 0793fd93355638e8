(* Extents grow element-wise during the dry scan and are never written
   again once the store is frozen, so frozen stores and shapes may share
   them. *)
type extent = { lo : int array; hi : int array }

type store = {
  ext : extent;
  mutable data : float array;  (** row-major with offsets from [ext] *)
}

type t = {
  tbl : (string, store) Hashtbl.t;
  mutable frozen : bool;
}

let create () = { tbl = Hashtbl.create 8; frozen = false }

let note_bounds t name idx =
  if t.frozen then invalid_arg "Arrays.note_bounds: already frozen";
  let idx = Array.of_list idx in
  match Hashtbl.find_opt t.tbl name with
  | None ->
      Hashtbl.add t.tbl name
        { ext = { lo = Array.copy idx; hi = Array.copy idx }; data = [||] }
  | Some s ->
      if Array.length idx <> Array.length s.ext.lo then
        invalid_arg ("Arrays: rank mismatch for " ^ name);
      Array.iteri
        (fun k v ->
          if v < s.ext.lo.(k) then s.ext.lo.(k) <- v;
          if v > s.ext.hi.(k) then s.ext.hi.(k) <- v)
        idx

(* Initial values: splitmix64's finalizer (multipliers truncated to
   63-bit ints, still odd, so each round stays a bijection) seeded with
   the name's hash and folded over the indices; the top 31 bits of the
   result pick one of 1000 values in [0, 10.3). *)
let mix z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let name_seed name = mix (Hashtbl.hash name)
let step h v = mix (h + (v * 0x1e3779b97f4a7c15))
let value h = float_of_int (((h lsr 32) * 1000) lsr 31) /. 97.0
let initial_value name idx = value (List.fold_left step (name_seed name) idx)

let cell_count ext =
  Array.fold_left ( * ) 1
    (Array.mapi (fun k lo -> ext.hi.(k) - lo + 1) ext.lo)

let offset ext idx =
  let acc = ref 0 in
  List.iteri
    (fun k v ->
      if v < ext.lo.(k) || v > ext.hi.(k) then raise Not_found;
      acc := (!acc * (ext.hi.(k) - ext.lo.(k) + 1)) + (v - ext.lo.(k)))
    idx;
  !acc

(* The seeded backing array: indices are walked in row-major (odometer)
   order, carrying the hash of each index prefix down the dimensions, so
   every cell costs one [step] and nothing is allocated but the array. *)
let seed name ext =
  let lo = ext.lo and hi = ext.hi in
  let rank = Array.length lo in
  let data = Array.create_float (cell_count ext) in
  (* Cell [v] of dimension [k] lies at [base + v] after rebasing. *)
  let rec fill k h base =
    let l = lo.(k) in
    let base = (base * (hi.(k) - l + 1)) - l in
    if k = rank - 1 then
      for v = l to hi.(k) do
        data.(base + v) <- value (step h v)
      done
    else
      for v = l to hi.(k) do
        fill (k + 1) (step h v) (base + v)
      done
  in
  if rank = 0 then data.(0) <- value (name_seed name)
  else fill 0 (name_seed name) 0;
  data

let freeze t =
  if not t.frozen then begin
    Hashtbl.iter (fun name s -> s.data <- seed name s.ext) t.tbl;
    t.frozen <- true
  end

type shape = (string * extent) list

let shape t =
  if not t.frozen then invalid_arg "Arrays.shape: freeze first";
  Hashtbl.fold (fun name s acc -> (name, s.ext) :: acc) t.tbl []

let of_shape sh =
  let t = create () in
  List.iter
    (fun (name, ext) -> Hashtbl.replace t.tbl name { ext; data = seed name ext })
    sh;
  t.frozen <- true;
  t

let get t name idx =
  match Hashtbl.find_opt t.tbl name with
  | None -> initial_value name idx
  | Some s -> (
      match offset s.ext idx with
      | off -> s.data.(off)
      | exception Not_found -> initial_value name idx)

let set t name idx v =
  if not t.frozen then invalid_arg "Arrays.set: freeze first";
  match Hashtbl.find_opt t.tbl name with
  | None -> invalid_arg ("Arrays.set: unknown array " ^ name)
  | Some s -> (
      match offset s.ext idx with
      | off -> s.data.(off) <- v
      | exception Not_found ->
          invalid_arg
            (Printf.sprintf "Arrays.set: %s index out of scanned bounds" name))

type view = {
  v_lo : int array;
  v_hi : int array;
  v_strides : int array;
  v_data : float array;
}

let view t name =
  if not t.frozen then invalid_arg "Arrays.view: freeze first";
  match Hashtbl.find_opt t.tbl name with
  | None -> None
  | Some s ->
      let n = Array.length s.ext.lo in
      let strides = Array.make n 1 in
      for k = n - 2 downto 0 do
        strides.(k) <- strides.(k + 1) * (s.ext.hi.(k + 1) - s.ext.lo.(k + 1) + 1)
      done;
      Some
        {
          v_lo = Array.copy s.ext.lo;
          v_hi = Array.copy s.ext.hi;
          v_strides = strides;
          v_data = s.data;
        }

let arrays t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl [] |> List.sort compare

let max_abs_diff a b =
  List.fold_left
    (fun acc name ->
      match (Hashtbl.find_opt a.tbl name, Hashtbl.find_opt b.tbl name) with
      | Some sa, Some sb when Array.length sa.data = Array.length sb.data ->
          let m = ref acc in
          Array.iteri
            (fun k v ->
              let d = Float.abs (v -. sb.data.(k)) in
              if d > !m then m := d)
            sa.data;
          !m
      | _ -> infinity)
    0.0 (arrays a)

let same_extents a b name =
  match (Hashtbl.find_opt a.tbl name, Hashtbl.find_opt b.tbl name) with
  | Some sa, Some sb -> sa.ext = sb.ext
  | _ -> false

let equal a b =
  let names = arrays a in
  names = arrays b
  && List.for_all (same_extents a b) names
  && max_abs_diff a b = 0.0
