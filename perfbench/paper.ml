(* The paper's programs at the paper's sizes, with the partition facts
   every pass is checked against. *)

type prog = {
  name : string;
  ast : Loopir.Ast.program;
  params : (string * int) list;
  pinned : Check.pinned;
}

let example1 =
  {
    name = "example1";
    ast = Loopir.Builtin.example1;
    params = [ ("n1", 300); ("n2", 1000) ];
    pinned =
      {
        Check.instances = 300_000;
        sets = Some (210_900, 28_512, 60_588);
        chains = Some 19_228;
        fronts = None;
      };
  }

let example2 =
  {
    name = "example2";
    ast = Loopir.Builtin.example2;
    params = [ ("n", 300) ];
    pinned =
      { Check.instances = 90_000; sets = None; chains = Some 1_833; fronts = None };
  }

let coupled_stretch =
  {
    name = "coupled_stretch";
    ast = List.assoc "coupled_stretch" Loopir.Builtin.corpus;
    params = [ ("n", 200_000) ];
    pinned =
      {
        Check.instances = 200_000;
        sets = None;
        chains = Some 25_000;
        fronts = None;
      };
  }

let cholesky =
  {
    name = "cholesky";
    ast = Loopir.Builtin.cholesky;
    params = [ ("nmat", 250); ("m", 4); ("n", 40); ("nrhs", 3) ];
    pinned =
      { Check.instances = 546_176; sets = None; chains = None; fronts = Some 318 };
  }

let rec_programs = [ example1; example2; coupled_stretch ]
let all = rec_programs @ [ cholesky ]

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Diag.to_string e))
