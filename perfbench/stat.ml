(* Order statistics over measured samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median = function
  | [] -> Float.nan
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it.  With fewer than 100 samples p99 is the
   maximum; callers print the sample count next to it. *)
let percentile p = function
  | [] -> Float.nan
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let sum = List.fold_left ( +. ) 0.0

let geomean = function
  | [] -> Float.nan
  | xs ->
      exp (sum (List.map log xs) /. float_of_int (List.length xs))

let ms s = s *. 1000.0
