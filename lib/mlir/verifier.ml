(** IR verification: SSA dominance, per-dialect structural rules, and the
    sdfg dialect's parametric size checks (Fig 3 of the paper).

    The verifier returns all diagnostics rather than failing on the first,
    so compile-time size-mismatch errors read like the paper's example:
    ["sdfg.copy: size mismatch: source sym(\"N\") vs destination sym(\"M\")"]. *)

open Dcir_symbolic

type diagnostic = { severity : [ `Error | `Warning ]; message : string }

let error fmt = Fmt.kstr (fun m -> { severity = `Error; message = m }) fmt

let pp_diagnostic (ppf : Format.formatter) (d : diagnostic) : unit =
  Fmt.pf ppf "%s: %s"
    (match d.severity with `Error -> "error" | `Warning -> "warning")
    d.message

(* ------------------------------------------------------------------ *)
(* SSA dominance: every operand must be defined earlier in the same region
   or in an enclosing region. *)

let check_dominance (f : Ir.func) : diagnostic list =
  let diags = ref [] in
  let in_scope : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let define v = Hashtbl.replace in_scope v.Ir.vid () in
  let rec check_region ~(isolated : bool) (r : Ir.region) =
    (* Isolated regions (tasklets) hide the outer scope. *)
    let saved = if isolated then Some (Hashtbl.copy in_scope) else None in
    if isolated then Hashtbl.reset in_scope;
    List.iter define r.rargs;
    List.iter
      (fun (o : Ir.op) ->
        List.iter
          (fun (v : Ir.value) ->
            if not (Hashtbl.mem in_scope v.vid) then
              diags :=
                error "use of undefined value %s in op %s (%s)"
                  (Printer.value_name v) o.name
                  (if isolated then "tasklet is IsolatedFromAbove" else
                     "not dominated by definition")
                :: !diags)
          o.operands;
        let nested_isolated = String.equal o.name "sdfg.tasklet" in
        List.iter (check_region ~isolated:nested_isolated) o.regions;
        List.iter define o.results)
      r.rops;
    (* Region-local definitions do not escape. *)
    match saved with
    | Some s ->
        Hashtbl.reset in_scope;
        Hashtbl.iter (fun k () -> Hashtbl.replace in_scope k ()) s
    | None ->
        List.iter (fun v -> Hashtbl.remove in_scope v.Ir.vid) r.rargs;
        List.iter
          (fun (o : Ir.op) ->
            List.iter (fun v -> Hashtbl.remove in_scope v.Ir.vid) o.results)
          r.rops
  in
  (match f.fbody with
  | None -> ()
  | Some r -> check_region ~isolated:false r);
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Structural checks per op *)

let check_op (o : Ir.op) : diagnostic list =
  let err fmt = Fmt.kstr (fun m -> [ { severity = `Error; message = m } ]) fmt in
  match o.name with
  | "memref.load" -> (
      match o.operands with
      | mr :: idxs -> (
          match mr.vty with
          | Types.MemRef (_, dims) when List.length dims = List.length idxs ->
              []
          | Types.MemRef (_, dims) ->
              err "memref.load: %d indices for %d-d memref" (List.length idxs)
                (List.length dims)
          | _ -> err "memref.load: first operand is not a memref")
      | [] -> err "memref.load: missing operands")
  | "memref.store" -> (
      match o.operands with
      | _ :: mr :: idxs -> (
          match mr.vty with
          | Types.MemRef (_, dims) when List.length dims = List.length idxs ->
              []
          | Types.MemRef (_, dims) ->
              err "memref.store: %d indices for %d-d memref" (List.length idxs)
                (List.length dims)
          | _ -> err "memref.store: second operand is not a memref")
      | _ -> err "memref.store: missing operands")
  | "scf.for" -> (
      match o.regions with
      | [ r ] -> (
          match r.rargs with
          | iv :: _ when Types.equal iv.vty Types.Index -> []
          | _ -> err "scf.for: body must start with an index induction arg")
      | _ -> err "scf.for: expected exactly one region")
  | "sdfg.tasklet" -> (
      match o.regions with
      | [ r ] ->
          (* IsolatedFromAbove: no free values. *)
          let free = Ir.free_values r in
          if free <> [] then
            err "sdfg.tasklet: region captures outer values (%s); tasklets \
                 are IsolatedFromAbove"
              (String.concat ", " (List.map Printer.value_name free))
          else if List.length r.rargs <> List.length o.operands then
            err "sdfg.tasklet: %d region args for %d operands"
              (List.length r.rargs) (List.length o.operands)
          else []
      | _ -> err "sdfg.tasklet: expected exactly one region")
  | "sdfg.edge" -> (
      match Sdfg_d.edge_parts o with
      | Some (src, dst, _, _) when src <> "" && dst <> "" -> []
      | _ -> err "sdfg.edge: missing src/dst state labels")
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Parametric size verification (§3.1, Fig 3).

   Copies between containers — modeled as a tasklet-free load-then-store of a
   full subset, or the dedicated sdfg "copy" convention — must have provably
   equal sizes. Sizes with distinct symbols (e.g. N vs M) are flagged. *)

let dim_size_expr (d : Types.dim) : Expr.t option =
  match d with
  | Types.Static n -> Some (Expr.int n)
  | Types.SymDim e -> Some e
  | Types.Dynamic -> None

let check_copy_sizes (src_ty : Types.t) (dst_ty : Types.t) : diagnostic list =
  let sd = Types.dims src_ty and dd = Types.dims dst_ty in
  if List.length sd <> List.length dd then
    [ error "copy: rank mismatch (%d vs %d)" (List.length sd) (List.length dd) ]
  else
    List.concat
      (List.map2
         (fun a b ->
           match (dim_size_expr a, dim_size_expr b) with
           | Some ea, Some eb ->
               if Expr.equal ea eb then []
               else if
                 (* Distinct constant sizes, or provably different symbols:
                    a definite mismatch. Symbolic-but-maybe-equal sizes are
                    warnings in MLIR; with symbols they become checkable. *)
                 Bexpr.decide (Bexpr.eq ea eb) = Some false
               then
                 [ error "copy: size mismatch: source %s vs destination %s"
                     (Expr.to_string ea) (Expr.to_string eb) ]
               else
                 [ error "copy: cannot prove sizes equal: %s vs %s"
                     (Expr.to_string ea) (Expr.to_string eb) ]
           | _ ->
               (* Dynamic (?) sizes: unverifiable — the exact MLIR limitation
                  the sdfg dialect removes. *)
               [])
         sd dd)

let check_sdfg_copy (o : Ir.op) : diagnostic list =
  if String.equal o.name "sdfg.copy" then
    match o.operands with
    | [ src; dst ] -> check_copy_sizes src.vty dst.vty
    | _ -> [ error "sdfg.copy: expected two operands" ]
  else []

(* ------------------------------------------------------------------ *)

let verify_func (f : Ir.func) : diagnostic list =
  let diags = ref (check_dominance f) in
  Ir.walk_func f (fun o ->
      diags := !diags @ check_op o @ check_sdfg_copy o);
  !diags

let verify_module (m : Ir.modul) : diagnostic list =
  List.concat_map verify_func m.funcs

(** Raise [E-VERIFY] with all messages if verification finds errors. *)
let verify_exn (m : Ir.modul) : unit =
  let diags = verify_module m in
  let errors = List.filter (fun d -> d.severity = `Error) diags in
  if errors <> [] then
    Dcir_support.Diagnostics.fail ~code:"E-VERIFY"
      ~phase:Dcir_support.Diagnostics.Verify "%s"
      (String.concat "\n" (List.map (fun d -> Fmt.str "%a" pp_diagnostic d) errors))
