(** The [arith] dialect: integer/float arithmetic, comparisons, casts.

    Comparison predicates are stored in the ["predicate"] attribute using
    MLIR's mnemonics ([slt], [olt], ...). Constants carry their value in the
    ["value"] attribute. *)

let const_int (ty : Types.t) (n : int) : Ir.op =
  Ir.new_op "arith.constant"
    ~results:[ Ir.new_value ~hint:"c" ty ]
    ~attrs:[ ("value", Attr.AInt n) ]

let const_float (ty : Types.t) (f : float) : Ir.op =
  Ir.new_op "arith.constant"
    ~results:[ Ir.new_value ~hint:"cst" ty ]
    ~attrs:[ ("value", Attr.AFloat f) ]

let const_value (o : Ir.op) : Attr.t option =
  if String.equal o.name "arith.constant" then Ir.attr o "value" else None

(** Binary op with both operands and result of the same type. *)
let binary (opname : string) (lhs : Ir.value) (rhs : Ir.value) : Ir.op =
  Ir.new_op opname ~operands:[ lhs; rhs ]
    ~results:[ Ir.new_value lhs.vty ]

let addi = binary "arith.addi"
let subi = binary "arith.subi"
let muli = binary "arith.muli"
let divsi = binary "arith.divsi"
let remsi = binary "arith.remsi"
let andi = binary "arith.andi"
let ori = binary "arith.ori"
let xori = binary "arith.xori"
let maxsi = binary "arith.maxsi"
let minsi = binary "arith.minsi"
let addf = binary "arith.addf"
let subf = binary "arith.subf"
let mulf = binary "arith.mulf"
let divf = binary "arith.divf"
let maxf = binary "arith.maxf"
let minf = binary "arith.minf"

let negf (v : Ir.value) : Ir.op =
  Ir.new_op "arith.negf" ~operands:[ v ] ~results:[ Ir.new_value v.vty ]

let cmpi (pred : string) (lhs : Ir.value) (rhs : Ir.value) : Ir.op =
  Ir.new_op "arith.cmpi" ~operands:[ lhs; rhs ]
    ~results:[ Ir.new_value Types.I1 ]
    ~attrs:[ ("predicate", Attr.AStr pred) ]

let cmpf (pred : string) (lhs : Ir.value) (rhs : Ir.value) : Ir.op =
  Ir.new_op "arith.cmpf" ~operands:[ lhs; rhs ]
    ~results:[ Ir.new_value Types.I1 ]
    ~attrs:[ ("predicate", Attr.AStr pred) ]

let select (cond : Ir.value) (t : Ir.value) (f : Ir.value) : Ir.op =
  Ir.new_op "arith.select" ~operands:[ cond; t; f ]
    ~results:[ Ir.new_value t.vty ]

let cast (opname : string) (v : Ir.value) (to_ : Types.t) : Ir.op =
  Ir.new_op opname ~operands:[ v ] ~results:[ Ir.new_value to_ ]

let index_cast v to_ = cast "arith.index_cast" v to_
let sitofp v to_ = cast "arith.sitofp" v to_
let fptosi v to_ = cast "arith.fptosi" v to_
let extf v to_ = cast "arith.extf" v to_
let truncf v to_ = cast "arith.truncf" v to_

(** Classify an arith/math op for the cost model. *)
let cost_class (name : string) : Dcir_machine.Cost.op_class option =
  match name with
  | "arith.addi" | "arith.subi" | "arith.andi" | "arith.ori" | "arith.xori"
  | "arith.maxsi" | "arith.minsi" | "arith.cmpi" | "arith.cmpf"
  | "arith.select" ->
      Some Int_alu
  | "arith.muli" -> Some Int_mul
  | "arith.divsi" | "arith.remsi" -> Some Int_div
  | "arith.addf" | "arith.subf" | "arith.negf" | "arith.maxf" | "arith.minf"
    ->
      Some Fp_add
  | "arith.mulf" -> Some Fp_mul
  | "arith.divf" -> Some Fp_div
  | "arith.constant" -> None
  | "arith.index_cast" | "arith.sitofp" | "arith.fptosi" | "arith.extf"
  | "arith.truncf" ->
      Some Move
  | _ -> None
