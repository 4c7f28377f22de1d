(** The instruction cost model.

    Cycle estimates are throughput-oriented approximations of the paper's
    Skylake-SP server. Absolute values are not the reproduction target —
    ratios between pipelines are — but the relative magnitudes (a DRAM miss
    costs two orders of magnitude more than an FP add; a scalar [exp] call
    costs tens of cycles) are what make the paper's mechanisms visible. *)

type op_class =
  | Int_alu  (** add/sub/logic/compare/select *)
  | Int_mul
  | Int_div
  | Fp_add  (** add/sub *)
  | Fp_mul
  | Fp_div
  | Fp_sqrt
  | Math_call  (** exp, log, tanh, pow, ... via libm *)
  | Branch
  | Move  (** register moves, casts *)

type config = {
  l1_hit : float;
  l2_hit : float;
  l3_hit : float;
  dram : float;
  malloc_cost : float;  (** fixed cost per heap allocation call *)
  malloc_per_page : float;  (** first-touch cost per 4 KiB page *)
  free_cost : float;
  fp_vector_width : int;
      (** elements per vector for streaming FP ops; models -march=native
          auto-vectorization and is identical across compiler proxies *)
  vector_math : bool;
      (** vectorized math library (SLEEF/ICC, §7.3): when set, [Math_call]
          is amortized over [fp_vector_width] lanes *)
}

let default : config =
  {
    l1_hit = 4.0;
    l2_hit = 14.0;
    l3_hit = 48.0;
    dram = 180.0;
    malloc_cost = 400.0;
    malloc_per_page = 120.0;
    free_cost = 250.0;
    fp_vector_width = 8;
    vector_math = false;
  }

let with_vector_math (c : config) : config = { c with vector_math = true }

(** Per-operation cycle cost under [config]. Streaming FP arithmetic is
    amortized over the vector width; integer address arithmetic is not
    (it executes on scalar ports alongside the vector pipe). *)
let op_cost (cfg : config) (cls : op_class) : float =
  let vw = float_of_int (max 1 cfg.fp_vector_width) in
  match cls with
  | Int_alu -> 0.5
  | Int_mul -> 1.0
  | Int_div -> 20.0
  | Fp_add -> 2.0 /. vw
  | Fp_mul -> 2.0 /. vw
  | Fp_div -> 12.0 /. vw
  | Fp_sqrt -> 16.0 /. vw
  | Math_call -> if cfg.vector_math then 40.0 /. vw else 40.0
  | Branch -> 1.0
  | Move -> 0.25

(** Dense index of an op class, for per-class tables. *)
let class_index : op_class -> int = function
  | Int_alu -> 0
  | Int_mul -> 1
  | Int_div -> 2
  | Fp_add -> 3
  | Fp_mul -> 4
  | Fp_div -> 5
  | Fp_sqrt -> 6
  | Math_call -> 7
  | Branch -> 8
  | Move -> 9

let all_classes : op_class list =
  [ Int_alu; Int_mul; Int_div; Fp_add; Fp_mul; Fp_div; Fp_sqrt; Math_call;
    Branch; Move ]

let pp_op_class (ppf : Format.formatter) (c : op_class) : unit =
  Fmt.string ppf
    (match c with
    | Int_alu -> "int_alu"
    | Int_mul -> "int_mul"
    | Int_div -> "int_div"
    | Fp_add -> "fp_add"
    | Fp_mul -> "fp_mul"
    | Fp_div -> "fp_div"
    | Fp_sqrt -> "fp_sqrt"
    | Math_call -> "math_call"
    | Branch -> "branch"
    | Move -> "move")
