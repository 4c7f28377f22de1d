(** The MLIR-style type system.

    Covers the types Polygeist emits for the C subset (integers, floats,
    [index], memrefs with static/dynamic dimensions) plus the sdfg dialect's
    containers, whose dimensions may be {e symbolic expressions} — the §3.1
    extension that makes parametric size verification possible. *)

type dim =
  | Static of int
  | Dynamic  (** the [?] in [memref<?xf32>] *)
  | SymDim of Dcir_symbolic.Expr.t  (** [sym("N+1")] — sdfg dialect only *)

type t =
  | I1
  | I32
  | I64
  | F32
  | F64
  | Index
  | MemRef of t * dim list  (** element type is always scalar *)
  | SdfgArray of t * dim list  (** !sdfg.array<...>; scalar if dims = [] *)
  | SdfgStream of t  (** !sdfg.stream<...> FIFO container *)

let is_scalar = function
  | I1 | I32 | I64 | F32 | F64 | Index -> true
  | MemRef _ | SdfgArray _ | SdfgStream _ -> false

let is_float = function F32 | F64 -> true | _ -> false

let elem_type = function
  | MemRef (t, _) | SdfgArray (t, _) | SdfgStream t -> t
  | t -> t

let dims = function MemRef (_, d) | SdfgArray (_, d) -> d | _ -> []

(** Byte width used by the cache model. [Index] and [I64] are 8 bytes; [I1]
    occupies one byte as in LLVM memory layout. *)
let byte_width = function
  | I1 -> 1
  | I32 -> 4
  | I64 | Index -> 8
  | F32 -> 4
  | F64 -> 8
  | MemRef _ | SdfgArray _ | SdfgStream _ -> 8 (* pointer *)

let equal_dim (a : dim) (b : dim) : bool =
  match (a, b) with
  | Static x, Static y -> x = y
  | Dynamic, Dynamic -> true
  | SymDim x, SymDim y -> Dcir_symbolic.Expr.equal x y
  | _ -> false

let rec equal (a : t) (b : t) : bool =
  match (a, b) with
  | I1, I1 | I32, I32 | I64, I64 | F32, F32 | F64, F64 | Index, Index -> true
  | MemRef (ta, da), MemRef (tb, db) | SdfgArray (ta, da), SdfgArray (tb, db)
    ->
      equal ta tb && List.length da = List.length db
      && List.for_all2 equal_dim da db
  | SdfgStream ta, SdfgStream tb -> equal ta tb
  | _ -> false

let pp_dim (ppf : Format.formatter) (d : dim) : unit =
  match d with
  | Static n -> Fmt.int ppf n
  | Dynamic -> Fmt.string ppf "?"
  | SymDim e -> Fmt.pf ppf "sym(\"%a\")" Dcir_symbolic.Expr.pp e

let rec pp (ppf : Format.formatter) (t : t) : unit =
  match t with
  | I1 -> Fmt.string ppf "i1"
  | I32 -> Fmt.string ppf "i32"
  | I64 -> Fmt.string ppf "i64"
  | F32 -> Fmt.string ppf "f32"
  | F64 -> Fmt.string ppf "f64"
  | Index -> Fmt.string ppf "index"
  | MemRef (t, ds) ->
      Fmt.pf ppf "memref<%a%a>"
        (Fmt.list ~sep:Fmt.nop (fun ppf d -> Fmt.pf ppf "%ax" pp_dim d))
        ds pp t
  | SdfgArray (t, ds) ->
      Fmt.pf ppf "!sdfg.array<%a%a>"
        (Fmt.list ~sep:Fmt.nop (fun ppf d -> Fmt.pf ppf "%ax" pp_dim d))
        ds pp t
  | SdfgStream t -> Fmt.pf ppf "!sdfg.stream<%a>" pp t

let to_string (t : t) : string = Fmt.str "%a" pp t
