(** Synthetic argument construction from a C signature.

    Shared by [dcir run], [dcir explain] and the serve engine: array
    parameters get deterministic pseudo-random buffers (the
    {!Dcir_workloads.Workload.frand} pattern), scalar ints take the
    request's [size], floats a fixed constant — the same inputs on every
    machine, which is what keeps serve journals byte-reproducible. *)

module C_ast = Dcir_cfront.C_ast
module Pipelines = Dcir_core.Pipelines

(** [args src entry ~size] — one synthetic argument per parameter of
    [entry] in [src]. Raises [Not_found] when [entry] is not defined and
    frontend diagnostics when [src] does not parse — callers classify
    both as request failures. *)
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

(** First function name of [src], for requests that omit [entry]. Raises
    frontend diagnostics on unparsable source. *)
let default_entry (src : string) : string option =
  let prog = Dcir_cfront.C_sema.check (Dcir_cfront.C_parser.parse_program src) in
  match prog.funcs with f :: _ -> Some f.C_ast.name | [] -> None
