(** Workload descriptors: a C source, its entry point, and a deterministic
    argument builder (fresh arrays per run, so pipelines never see each
    other's outputs). Sizes are "REPRO" scale — large enough that memory
    behaviour dominates, small enough for the interpreter (the paper's
    absolute sizes target wall-clock hardware; shapes, not magnitudes, are
    the reproduction target — DESIGN.md §2). *)

type t = {
  name : string;
  description : string;
  src : string;
  entry : string;
  args : unit -> Dcir_core.Pipelines.arg list;
}

let w name description entry src args = { name; description; src; entry; args }

(* Deterministic pseudo-random init in [0, 1): Polybench-style (i*j)-hash
   patterns create poorly-conditioned matrices for the solvers, so a simple
   LCG keyed by position is used instead. *)
let frand (key : int) : float =
  let x = (key * 1103515245) + 12345 in
  let x = x land 0x3FFFFFFF in
  float_of_int x /. 1073741824.0

let farray (n : int) (f : int -> float) : float array = Array.init n f

let fmatrix (rows : int) (cols : int) (f : int -> int -> float) :
    Dcir_core.Pipelines.arg =
  let data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) in
  Dcir_core.Pipelines.AFloatArr (data, [| rows; cols |])

let fcube (d0 : int) (d1 : int) (d2 : int) (f : int -> int -> int -> float) :
    Dcir_core.Pipelines.arg =
  let data =
    Array.init (d0 * d1 * d2) (fun k ->
        f (k / (d1 * d2)) (k / d2 mod d1) (k mod d2))
  in
  Dcir_core.Pipelines.AFloatArr (data, [| d0; d1; d2 |])

let fvec (n : int) (f : int -> float) : Dcir_core.Pipelines.arg =
  Dcir_core.Pipelines.AFloatArr (farray n f, [| n |])

let imatrix (rows : int) (cols : int) (f : int -> int -> int) :
    Dcir_core.Pipelines.arg =
  let data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) in
  Dcir_core.Pipelines.AIntArr (data, [| rows; cols |])
