(** Synthetic argument construction from a C signature.

    Shared by [dcir run], [dcir explain] and the serve engine: array
    parameters get deterministic pseudo-random buffers (the
    {!Dcir_workloads.Workload.frand} pattern), scalar ints take the
    request's [size], floats a fixed constant — the same inputs on every
    machine, which is what keeps serve journals byte-reproducible. *)

module C_ast = Dcir_cfront.C_ast
module Diag = Dcir_support.Diagnostics
module Pipelines = Dcir_core.Pipelines

(** [args src entry ~size] — one synthetic argument per parameter of
    [entry] in [src], which callers resolve first ({!resolve_entry}).
    Raises frontend diagnostics when [src] does not check. *)
let args (src : string) (entry : string) ~(size : float) :
    Pipelines.arg list =
  let prog = Dcir_cfront.C_sema.check (Dcir_cfront.C_parser.parse_program src) in
  let f = List.find (fun (f : C_ast.func_def) -> f.name = entry) prog.funcs in
  List.map
    (fun ((_, ty) : string * C_ast.cty) ->
      match ty with
      | C_ast.TArr (elem, dims) ->
          let elems = List.fold_left ( * ) 1 dims in
          if C_ast.is_float_ty elem then
            Pipelines.AFloatArr
              ( Array.init elems (fun i -> Dcir_workloads.Workload.frand i),
                Array.of_list dims )
          else
            Pipelines.AIntArr
              (Array.init elems (fun i -> (i * 7) mod 13), Array.of_list dims)
      | C_ast.TPtr elem ->
          if C_ast.is_float_ty elem then
            Pipelines.AFloatArr
              (Array.init 256 (fun i -> Dcir_workloads.Workload.frand i), [| 256 |])
          else Pipelines.AIntArr (Array.init 256 (fun i -> i mod 13), [| 256 |])
      | C_ast.TInt -> Pipelines.AInt (int_of_float size)
      | C_ast.TFloat | C_ast.TDouble -> Pipelines.AFloat 1.5
      | C_ast.TVoid -> Pipelines.AInt 0)
    f.params

(** The function a request or a command works on: [entry], or else the
    first function in [src]. A name [src] does not define, or a source
    without functions, fails with the frontend diagnostic [E-NO-ENTRY],
    which the serve engine never retries. Only parses [src]: when it does
    not parse, an explicit [entry] is returned as is and the compile
    reports the syntax error, while an omitted one fails here with the
    compile's diagnostic, [E-LEX] or [E-PARSE]. *)
let resolve_entry (src : string) (entry : string option) : string =
  match Dcir_cfront.C_parser.parse_program src with
  | exception Diag.Error _ when Option.is_some entry -> Option.get entry
  | prog -> (
      let funcs = List.map (fun (f : C_ast.func_def) -> f.name) prog.funcs in
      match (entry, funcs) with
      | Some e, _ when List.mem e funcs -> e
      | None, f :: _ -> f
      | Some e, _ ->
          Diag.fail ~code:"E-NO-ENTRY" ~phase:Diag.Frontend
            "no function '%s' in the source" e
      | None, [] ->
          Diag.fail ~code:"E-NO-ENTRY" ~phase:Diag.Frontend
            "source defines no function")
