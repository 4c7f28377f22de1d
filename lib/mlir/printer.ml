(** Textual form of the IR, close to MLIR's generic syntax:

    {v
    func.func @kernel(%arg0: memref<?xf64>) -> f64 {
      %c0 = "arith.constant"() {value = 0} : () -> index
      %0 = "memref.load"(%arg0, %c0) : (memref<?xf64>, index) -> f64
      "func.return"(%0) : (f64) -> ()
    }
    v}

    Printed names are [%<hint><vid>] so they are unique and stable; the
    parser accepts exactly this format, giving printer/parser round-trips. *)

let value_name (v : Ir.value) : string =
  if String.equal v.hint "" then Printf.sprintf "%%v%d" v.vid
  else Printf.sprintf "%%%s%d" v.hint v.vid

let pp_value (ppf : Format.formatter) (v : Ir.value) : unit =
  Fmt.string ppf (value_name v)

let pp_typed_value (ppf : Format.formatter) (v : Ir.value) : unit =
  Fmt.pf ppf "%a: %a" pp_value v Types.pp v.vty

let rec pp_op (ppf : Format.formatter) (o : Ir.op) : unit =
  (* results *)
  (match o.results with
  | [] -> ()
  | rs -> Fmt.pf ppf "%a = " (Fmt.list ~sep:(Fmt.any ", ") pp_value) rs);
  Fmt.pf ppf "\"%s\"(%a)" o.name
    (Fmt.list ~sep:(Fmt.any ", ") pp_value)
    o.operands;
  (* attributes *)
  (match o.attrs with
  | [] -> ()
  | attrs ->
      Fmt.pf ppf " {%a}"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k, a) ->
             Fmt.pf ppf "%s = %a" k Attr.pp a))
        attrs);
  (* regions *)
  List.iter (fun r -> Fmt.pf ppf " (%a)" pp_region r) o.regions;
  (* type signature *)
  Fmt.pf ppf " : (%a) -> (%a)"
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf v -> Types.pp ppf v.Ir.vty))
    o.operands
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf v -> Types.pp ppf v.Ir.vty))
    o.results

(* A region's body is indented 2 spaces deeper than the op that holds it,
   not from the column where its "{" falls: that column depends on how
   wide the serials printed before it are. *)
and pp_region (ppf : Format.formatter) (r : Ir.region) : unit =
  Fmt.pf ppf "{@;<0 2>@[<v 0>";
  if r.rargs <> [] then begin
    Fmt.pf ppf "^bb(%a):"
      (Fmt.list ~sep:(Fmt.any ", ") pp_typed_value)
      r.rargs;
    if r.rops <> [] then Fmt.cut ppf ()
  end;
  Fmt.list ~sep:Fmt.cut pp_op ppf r.rops;
  Fmt.pf ppf "@]@,}"

let pp_func (ppf : Format.formatter) (f : Ir.func) : unit =
  match f.fbody with
  | None ->
      Fmt.pf ppf "func.func private @%s(%a) -> (%a)" f.fname
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf v -> Types.pp ppf v.Ir.vty))
        f.fparams
        (Fmt.list ~sep:(Fmt.any ", ") Types.pp)
        f.fret
  | Some r ->
      Fmt.pf ppf "@[<v 2>func.func @%s(%a) -> (%a)%s {" f.fname
        (Fmt.list ~sep:(Fmt.any ", ") pp_typed_value)
        f.fparams
        (Fmt.list ~sep:(Fmt.any ", ") Types.pp)
        f.fret
        (if f.fattrs = [] then ""
         else
           Fmt.str " attributes {%a}"
             (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k, a) ->
                  Fmt.pf ppf "%s = %a" k Attr.pp a))
             f.fattrs);
      List.iter (fun o -> Fmt.pf ppf "@,%a" pp_op o) r.rops;
      Fmt.pf ppf "@]@,}"

let pp_module (ppf : Format.formatter) (m : Ir.modul) : unit =
  Fmt.pf ppf "@[<v 2>module {";
  List.iter (fun f -> Fmt.pf ppf "@,%a" pp_func f) m.funcs;
  Fmt.pf ppf "@]@,}"

let func_to_string (f : Ir.func) : string = Fmt.str "%a@." pp_func f
let module_to_string (m : Ir.modul) : string = Fmt.str "%a@." pp_module m
