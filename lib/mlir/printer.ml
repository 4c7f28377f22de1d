(** Textual form of the IR, close to MLIR's generic syntax:

    {v
    func.func @kernel(%arg_0: memref<?xf64>) -> (f64) {
      %c_1 = "arith.constant"() {value = 0} : () -> (index)
      %2 = "memref.load"(%arg_0, %c_1) : (memref<?xf64>, index) -> (f64)
      "func.return"(%2) : (f64) -> ()
    }
    v}

    Each printed function names its values afresh, as MLIR does for an
    isolated-from-above op: [%<hint>_<k>], or [%<k>] for a value without
    a hint, where [k] counts the function's values in order of first
    appearance in the text (parameters, op results and block arguments
    where they are printed; a use before any definition takes the next
    number too). The text is therefore a function of the IR alone, never
    of the process-wide ids its values were minted with, and
    {!module_to_string} prints each function as {!func_to_string} does.

    {!value_name} is the diagnostic name, [%<hint><vid>]: traps, verifier
    and conversion errors name a value by its id, which is unique across
    the whole process but is not part of any printed artifact. *)

let value_name (v : Ir.value) : string =
  if String.equal v.hint "" then Printf.sprintf "%%v%d" v.vid
  else Printf.sprintf "%%%s%d" v.hint v.vid

(* The names of one printed function's values, by first appearance. *)
type names = { seen : (int, string) Hashtbl.t; mutable next : int }

let pp_value (names : names) (ppf : Format.formatter) (v : Ir.value) : unit =
  let name =
    match Hashtbl.find_opt names.seen v.vid with
    | Some name -> name
    | None ->
        let k = names.next in
        names.next <- k + 1;
        let name =
          if String.equal v.hint "" then Printf.sprintf "%%%d" k
          else Printf.sprintf "%%%s_%d" v.hint k
        in
        Hashtbl.add names.seen v.vid name;
        name
  in
  Fmt.string ppf name

let pp_typed_value (names : names) (ppf : Format.formatter) (v : Ir.value) :
    unit =
  Fmt.pf ppf "%a: %a" (pp_value names) v Types.pp v.vty

let rec pp_op (names : names) (ppf : Format.formatter) (o : Ir.op) : unit =
  (* results *)
  (match o.results with
  | [] -> ()
  | rs ->
      Fmt.pf ppf "%a = " (Fmt.list ~sep:(Fmt.any ", ") (pp_value names)) rs);
  Fmt.pf ppf "\"%s\"(%a)" o.name
    (Fmt.list ~sep:(Fmt.any ", ") (pp_value names))
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
  List.iter (fun r -> Fmt.pf ppf " (%a)" (pp_region names) r) o.regions;
  (* type signature *)
  Fmt.pf ppf " : (%a) -> (%a)"
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf v -> Types.pp ppf v.Ir.vty))
    o.operands
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf v -> Types.pp ppf v.Ir.vty))
    o.results

(* A region's body is indented 2 spaces deeper than the op that holds it,
   not from the column where its "{" falls. *)
and pp_region (names : names) (ppf : Format.formatter) (r : Ir.region) :
    unit =
  Fmt.pf ppf "{@;<0 2>@[<v 0>";
  if r.rargs <> [] then begin
    Fmt.pf ppf "^bb(%a):"
      (Fmt.list ~sep:(Fmt.any ", ") (pp_typed_value names))
      r.rargs;
    if r.rops <> [] then Fmt.cut ppf ()
  end;
  Fmt.list ~sep:Fmt.cut (pp_op names) ppf r.rops;
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
      let names = { seen = Hashtbl.create 32; next = 0 } in
      Fmt.pf ppf "@[<v 2>func.func @%s(%a) -> (%a)%s {" f.fname
        (Fmt.list ~sep:(Fmt.any ", ") (pp_typed_value names))
        f.fparams
        (Fmt.list ~sep:(Fmt.any ", ") Types.pp)
        f.fret
        (if f.fattrs = [] then ""
         else
           Fmt.str " attributes {%a}"
             (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k, a) ->
                  Fmt.pf ppf "%s = %a" k Attr.pp a))
             f.fattrs);
      List.iter (fun o -> Fmt.pf ppf "@,%a" (pp_op names) o) r.rops;
      Fmt.pf ppf "@]@,}"

let pp_module (ppf : Format.formatter) (m : Ir.modul) : unit =
  Fmt.pf ppf "@[<v 2>module {";
  List.iter (fun f -> Fmt.pf ppf "@,%a" pp_func f) m.funcs;
  Fmt.pf ppf "@]@,}"

let func_to_string (f : Ir.func) : string = Fmt.str "%a@." pp_func f
let module_to_string (m : Ir.modul) : string = Fmt.str "%a@." pp_module m
