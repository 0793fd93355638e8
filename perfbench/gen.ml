(* The svc-mix request stream: seeded JSONL lines over Loopir.Builtin
   nest shapes.  The service sees only these lines.

   - hot (7 lines in 10): one of a fixed set of 32 keys, warmed before
     timing;
   - disk (1 in 10): a key an earlier service instance wrote to the store
     in preparation, each requested at most once;
   - fresh (2 in 10): a new binding of a known 1-D shape or of Example 1,
     so a cache miss that computes (tens of ms) and appends to the store.

   The seed shuffles each block of ten lines and deals disk and fresh
   shapes from shuffled decks (three [run] cards and one [classify] card
   per shape), then draws sizes; so every seed gives the same mix in a
   different order and with different keys.  Each card's shape gets a
   size no key has used yet, from ranges wide enough for the stream's
   length and disjoint between the classes. *)

type cls = Hot | Disk | Fresh

let cls_name = function Hot -> "hot" | Disk -> "disk" | Fresh -> "fresh"

type key = string * (string * int) list * Svc.Proto.mode
type item = { cls : cls; id : string; key : key; line : string }

let shapes_1d =
  [
    "coupled_stretch"; "coupled_affine1d"; "coupled_mirror"; "prefix_sum";
    "stencil1d"; "reverse_copy"; "gather_shift";
  ]

let shapes_2d =
  [
    "example2"; "uniform_diag"; "triangular_uniform"; "coupled_skew2d";
    "coupled_symm"; "coupled_scale2d"; "coupled_doubling"; "wavefront2d";
    "transpose_copy";
  ]

let source =
  let tbl = Hashtbl.create 16 in
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some s -> s
    | None ->
        let s =
          Loopir.Pretty.program_to_string (List.assoc name Loopir.Builtin.all)
        in
        Hashtbl.add tbl name s;
        s

let line ~id ((shape, params, mode) : key) =
  Pipeline.Json.to_string
    (Svc.Proto.request_to_json
       (Svc.Proto.request ~id ~name:shape ~params ~mode
          (Svc.Proto.Src (source shape))))

(* The 32 hot keys: every shape at two mid sizes, one in four classify. *)
let hot_keys =
  List.mapi
    (fun i (shape, n) ->
      ( shape,
        [ ("n", n) ],
        if i mod 4 = 3 then Svc.Proto.Classify else Svc.Proto.Run ))
    (List.concat_map (fun s -> [ (s, 700); (s, 900) ]) shapes_1d
    @ List.concat_map (fun s -> [ (s, 13); (s, 14) ]) shapes_2d)

let warm_lines =
  List.mapi (fun i k -> line ~id:(Printf.sprintf "w%d" i) k) hot_keys

(* Disk and fresh decks: three [run] cards and one [classify] card per
   shape.  Fresh requests use the shapes with enough distinct sizes in a
   narrow cost band (the 1-D shapes and Example 1's two bounds), so every
   seed draws from the same cost distribution. *)
let deck_cards shapes =
  List.concat_map
    (fun s -> List.map (fun m -> (s, m)) Svc.Proto.[ Run; Run; Run; Classify ])
    shapes

let disk_cards = deck_cards (shapes_1d @ shapes_2d @ [ "example1" ])
let fresh_cards = deck_cards (shapes_1d @ [ "example1" ])

(* Size ranges of a class: the first size and the number of sizes of the
   1-D shapes and of the 2-D shapes, and the first size and the side of
   Example 1's (n1, n2) square. *)
type sizes = { d1 : int * int; d2 : int * int; ex1 : int * int }

(* Each pass through a deck deals every card once, so a shape's [run]
   cards are dealt at most [3 * passes] times; a range holds that many
   sizes and two more (a hot key may take a size).  Below that demand a
   range keeps its base width, so the cost band of a fresh request does
   not move with the stream length. *)
let sizes_for ~per_block ~cards ~length ~d1:(d1_lo, d1_n) ~d2:(d2_lo, d2_n)
    ~ex1:(ex1_lo, ex1_side) =
  let dealt = ((length + 9) / 10) * per_block in
  let passes = (dealt + List.length cards - 1) / List.length cards in
  let need = (3 * passes) + 2 in
  let side = int_of_float (Float.ceil (Float.sqrt (float_of_int need))) in
  { d1 = (d1_lo, max d1_n need); d2 = (d2_lo, max d2_n need); ex1 = (ex1_lo, max ex1_side side) }

(* no 2-D shape is dealt fresh *)
let disk_sizes length =
  sizes_for ~per_block:1 ~cards:disk_cards ~length ~d1:(60, 591) ~d2:(3, 10) ~ex1:(5, 11)

let fresh_sizes length =
  sizes_for ~per_block:2 ~cards:fresh_cards ~length ~d1:(3000, 1001) ~d2:(0, 0) ~ex1:(30, 16)

(* The classes' keys are disjoint: disk sizes end below the fresh ones. *)
let check_disjoint length =
  let disk = disk_sizes length and fresh = fresh_sizes length in
  let ends (lo, n) = lo + n - 1 in
  if ends disk.d1 >= fst fresh.d1 || ends disk.ex1 >= fst fresh.ex1 then
    invalid_arg
      (Printf.sprintf "Gen.stream: %d lines need more disk sizes than fit below the fresh ones"
         length)

let stream ~seed ~length =
  check_disjoint length;
  let st = Random.State.make [| seed; 0x5eed |] in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let deck cards =
    let q = ref [] in
    fun () ->
      if !q = [] then q := Array.to_list (shuffle (Array.of_list cards));
      let c = List.hd !q in
      q := List.tl !q;
      c
  in
  let used = Hashtbl.create 4096 in
  List.iter (fun k -> Hashtbl.replace used k ()) hot_keys;
  (* an unused key of the next card: a random size of the shape's range,
     or the next unused one after it; the ranges are sized so that one
     is always left *)
  let draw sizes next =
    let shape, mode = next () in
    let count, params =
      if shape = "example1" then
        let lo, side = sizes.ex1 in
        (side * side, fun i -> [ ("n1", lo + (i / side)); ("n2", lo + (i mod side)) ])
      else
        let lo, n = if List.mem shape shapes_1d then sizes.d1 else sizes.d2 in
        (n, fun i -> [ ("n", lo + i) ])
    in
    let start = Random.State.int st count in
    let rec probe k =
      if k = count then
        failwith (Printf.sprintf "Gen.stream: every size of %s is used" shape)
      else
        let key = (shape, params ((start + k) mod count), mode) in
        if Hashtbl.mem used key then probe (k + 1) else key
    in
    let key = probe 0 in
    Hashtbl.replace used key ();
    key
  in
  let disk = deck disk_cards and fresh = deck fresh_cards in
  let disk_sizes = disk_sizes length and fresh_sizes = fresh_sizes length in
  let block = ref [] in
  List.init length (fun i ->
      if !block = [] then
        block :=
          Array.to_list
            (shuffle [| Hot; Hot; Hot; Hot; Hot; Hot; Hot; Disk; Fresh; Fresh |]);
      let cls = List.hd !block in
      block := List.tl !block;
      let key =
        match cls with
        | Hot -> List.nth hot_keys (Random.State.int st (List.length hot_keys))
        | Disk -> draw disk_sizes disk
        | Fresh -> draw fresh_sizes fresh
      in
      let id = Printf.sprintf "%c%d" (cls_name cls).[0] i in
      { cls; id; key; line = line ~id key })

let to_jsonl items = String.concat "" (List.map (fun it -> it.line ^ "\n") items)
