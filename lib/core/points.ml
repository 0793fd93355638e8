type t = { dim : int; n : int; data : int array }

let dim t = t.dim
let length t = t.n

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Points.get: index out of range";
  Array.sub t.data (i * t.dim) t.dim

let iter f t =
  for i = 0 to t.n - 1 do
    f (Array.sub t.data (i * t.dim) t.dim)
  done

let to_list t = List.init t.n (get t)
let empty ~dim = { dim; n = 0; data = [||] }

module Builder = struct
  type t = { bdim : int; mutable data : int array; mutable n : int }

  let create ~dim =
    if dim < 0 then invalid_arg "Points.Builder.create: negative dimension";
    { bdim = dim; data = Array.make (max 1 (16 * dim)) 0; n = 0 }

  let length b = b.n

  let add b (x : Linalg.Ivec.t) =
    if Array.length x <> b.bdim then
      invalid_arg "Points.Builder.add: dimension mismatch";
    let need = (b.n + 1) * b.bdim in
    if need > Array.length b.data then begin
      let data = Array.make (max need (2 * Array.length b.data)) 0 in
      Array.blit b.data 0 data 0 (b.n * b.bdim);
      b.data <- data
    end;
    Array.blit x 0 b.data (b.n * b.bdim) b.bdim;
    b.n <- b.n + 1

  let finish b =
    { dim = b.bdim; n = b.n; data = Array.sub b.data 0 (b.n * b.bdim) }
end

let of_list ~dim pts =
  let b = Builder.create ~dim in
  List.iter (Builder.add b) pts;
  Builder.finish b
