(** The [math] dialect: transcendental functions lowered from libm calls.

    These are the calls §7.3 discusses: Clang leaves them as scalar library
    calls while ICC (via SLEEF-like vector math) vectorizes them — modeled by
    the [vector_math] cost knob.

    {!table} is the one list of these functions. The C checker and
    lowering, both interpreters and the translator's op → tasklet-call map
    all read it, so a function costs the same in both IRs. *)

type fn = {
  c_name : string;  (** the libm name, in C sources and SDFG tasklets *)
  op : string;  (** the MLIR op *)
  arity : int;
  cls : Dcir_machine.Cost.op_class;  (** what one call charges *)
  eval : float list -> float;
}

let unary_fn c_name op ?(cls = Dcir_machine.Cost.Math_call) f =
  let eval = function [ x ] -> f x | _ -> invalid_arg c_name in
  { c_name; op; arity = 1; cls; eval }

(** [sqrt] maps to the hardware unit and [fabs] is a sign-bit operation;
    everything else is a libm call. *)
let table : fn list =
  [
    unary_fn "exp" "math.exp" Stdlib.exp;
    unary_fn "log" "math.log" Stdlib.log;
    unary_fn "sqrt" "math.sqrt" ~cls:Fp_sqrt Stdlib.sqrt;
    unary_fn "tanh" "math.tanh" Stdlib.tanh;
    unary_fn "fabs" "math.absf" ~cls:Fp_add Stdlib.abs_float;
    unary_fn "sin" "math.sin" Stdlib.sin;
    unary_fn "cos" "math.cos" Stdlib.cos;
    {
      c_name = "pow";
      op = "math.powf";
      arity = 2;
      cls = Math_call;
      eval = (function [ x; y ] -> Stdlib.( ** ) x y | _ -> invalid_arg "pow");
    };
  ]

let rec find (key : fn -> string) (name : string) : fn list -> fn option =
  function
  | [] -> None
  | f :: rest -> if String.equal (key f) name then Some f else find key name rest

let of_c_name (name : string) : fn option = find (fun f -> f.c_name) name table
let of_op (name : string) : fn option = find (fun f -> f.op) name table

(** The op of [f] on [args]; its result takes the first argument's type. *)
let call (f : fn) (args : Ir.value list) : Ir.op =
  Ir.new_op f.op ~operands:args ~results:[ Ir.new_value (List.hd args).vty ]

let sqrt v = call (Option.get (of_c_name "sqrt")) [ v ]

let is_math_op (name : string) : bool =
  String.length name > 5 && String.equal (String.sub name 0 5) "math."

(** Evaluate a math op on a float argument list. *)
let eval (name : string) (args : float list) : float =
  match of_op name with
  | Some f -> f.eval args
  | None -> invalid_arg ("Math_d.eval: unknown op " ^ name)

let cost_class (name : string) : Dcir_machine.Cost.op_class option =
  Option.map (fun f -> f.cls) (of_op name)
