(** Shared analyses for the control-centric passes: purity, memory effects,
    and simple op-signature hashing. *)

open Dcir_mlir

(** Ops that can trap at runtime: integer division and remainder stop
    execution on a zero divisor (defined behaviour in this machine, see the
    interpreter). A trap is an observable effect — these ops must never be
    speculated onto a path that did not already execute them. *)
let is_trapping (o : Ir.op) : bool =
  match o.Ir.name with "arith.divsi" | "arith.remsi" -> true | _ -> false

(** Ops with no side effects, no memory reads, and no possible trap — safe
    to CSE, DCE, hoist, and speculate freely. Floating-point division never
    traps (IEEE semantics: inf/nan), and the math ops are total over floats,
    so only the integer div/rem family is excluded. *)
let is_pure (o : Ir.op) : bool =
  let n = o.Ir.name in
  (not (is_trapping o))
  && ((String.length n > 6 && String.equal (String.sub n 0 6) "arith.")
     || Math_d.is_math_op n
     || String.equal n "memref.dim"
     || String.equal n "sdfg.sym")

(** Deterministic value ops whose only observable effect is a possible trap:
    given equal operands they trap together or compute equal values. They
    may be merged with a dominating identical op, and may move only to
    points where they were already guaranteed to execute. *)
let is_trapping_pure (o : Ir.op) : bool = is_trapping o

(** Ops whose only effect is reading memory — removable when unused,
    hoistable when memory is provably unmodified. *)
let is_read_only (o : Ir.op) : bool =
  String.equal o.Ir.name "memref.load" || String.equal o.Ir.name "sdfg.load"

(** Removable when the results are unused (pure or read-only, plus
    allocations, whose only observable effect here is cost). *)
let is_removable_if_unused (o : Ir.op) : bool =
  is_pure o || is_read_only o
  || String.equal o.Ir.name "memref.alloc"
  || String.equal o.Ir.name "memref.alloca"
  || String.equal o.Ir.name "sdfg.alloc"

(** The memref value written by this op, if any. *)
let written_memref (o : Ir.op) : Ir.value option =
  match o.Ir.name with
  | "memref.store" | "sdfg.store" -> (
      match o.operands with _ :: mr :: _ -> Some mr | _ -> None)
  | _ -> None

let read_memref (o : Ir.op) : Ir.value option =
  match o.Ir.name with
  | "memref.load" | "sdfg.load" -> (
      match o.operands with mr :: _ -> Some mr | _ -> None)
  | _ -> None

(** Memrefs written anywhere inside [r] (recursively), as a vid set. *)
let written_memrefs (r : Ir.region) : (int, unit) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  Ir.walk_region r (fun o ->
      match written_memref o with
      | Some mr -> Hashtbl.replace tbl mr.vid ()
      | None -> ());
  tbl

(** Does the region contain any call (unknown effects)? *)
let region_has_calls (r : Ir.region) : bool =
  let found = ref false in
  Ir.walk_region r (fun o ->
      if String.equal o.Ir.name "func.call" then found := true);
  !found

(** Map vid -> constant attribute for every [arith.constant] result in the
    region. Built per function; cheap at our IR sizes. *)
let const_map (body : Ir.region) : (int, Attr.t) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  Ir.walk_region body (fun o ->
      match Arith.const_value o with
      | Some a -> Hashtbl.replace tbl (Ir.result o).vid a
      | None -> ());
  tbl

let const_int (tbl : (int, Attr.t) Hashtbl.t) (v : Ir.value) : int option =
  match Hashtbl.find_opt tbl v.vid with
  | Some (Attr.AInt n) -> Some n
  | _ -> None

(** Structural signature for CSE: name + operand ids + attributes. Two pure
    ops with equal signatures compute the same value. *)
let signature (o : Ir.op) : string =
  let attrs =
    List.map (fun (k, a) -> k ^ "=" ^ Fmt.str "%a" Attr.pp a) o.attrs
  in
  Printf.sprintf "%s(%s){%s}" o.name
    (String.concat "," (List.map (fun v -> string_of_int v.Ir.vid) o.operands))
    (String.concat "," attrs)
