(** Prints one line per compile product: its content digest and what it
    costs to run, so that a change to what any pass produces, or to what
    the simulated machine charges for it, shows up as a one-line diff
    against [compile_digests.expected] (the [runtest] rule in [dune];
    accept an intended change with [dune promote]).

    The products:
    - the 29 Polybench kernels and the Fig 2 example through all five
      pipelines at O2;
    - the same workloads through dcir at O1, and through checked dcir;
    - 100 generated programs through the resilient, auto-parallelizing
      dcir ladder, with the tier each one landed at.

    A digest is taken over the canonical form of the printed IR
    ({!Dcir_support.Digest.canonical}), which renumbers the process-global
    serials, so it depends only on the product's structure.

    After the digest, each product is run once on the default (compiled)
    execution tier under a fresh budget, as
    {!Dcir_core.Pipelines.compare_pipelines} runs it, and the line
    carries:
    - [ok] or [WRONG]: agreement with the unoptimized reference, under
      [compare_pipelines]' rule (return value and array outputs within
      rtol 1e-6);
    - [cycles] (exact, [%.17g]), [loads], [stores];
    - [misses]: L1/L2/L3 misses;
    - [heap_allocs], [heap_bytes];
    - [steps]: interpreter budget steps spent by the run.

    A product that traps prints [trap] and its
    {!Dcir_core.Pipelines.classify_exn} code instead of the costs. *)

open Dcir_core
module D = Dcir_support.Digest
module Budget = Dcir_resilience.Budget
module Value = Dcir_machine.Value

let digest (c : Pipelines.compiled) : string =
  let text =
    match c with
    | Pipelines.CMlir m -> Dcir_mlir.Printer.module_to_string m
    | Pipelines.CSdfg s -> Dcir_sdfg.Printer.to_string s
  in
  D.of_string (D.canonical text)

let run ~entry ~args (c : Pipelines.compiled) :
    (Pipelines.run_result * Budget.t, string) result =
  let budget = Budget.create () in
  match Pipelines.run ~budget c ~entry (args ()) with
  | r -> Ok (r, budget)
  | exception e -> Error (Pipelines.classify_exn e)

(* [compare_pipelines]' correctness rule. *)
let agrees (r : Pipelines.run_result) (reference : Pipelines.run_result) :
    bool =
  let close = Value.close ~rtol:1e-6 in
  (match (r.return_value, reference.return_value) with
  | Some a, Some b -> close a b
  | None, None -> true
  | _ -> false)
  && List.length r.outputs = List.length reference.outputs
  && List.for_all2
       (fun (i, x) (j, y) ->
         i = j && Array.length x = Array.length y && Array.for_all2 close x y)
       r.outputs reference.outputs

(* The unoptimized reference run of [src], and a printer for the cost
   columns of any product of it. *)
let cost_of ~src ~entry ~args : Pipelines.compiled -> string =
  let reference =
    run ~entry ~args (Pipelines.CMlir (Dcir_cfront.Polygeist.compile src))
  in
  fun c ->
    match run ~entry ~args c with
    | Error code -> "trap " ^ code
    | Ok (r, budget) ->
        let m = r.metrics in
        let ok =
          match reference with
          | Ok (ref_r, _) -> agrees r ref_r
          | Error _ -> false
        in
        Printf.sprintf
          "%s cycles=%.17g loads=%d stores=%d misses=%d/%d/%d heap_allocs=%d \
           heap_bytes=%d steps=%d"
          (if ok then "ok" else "WRONG")
          m.cycles m.loads m.stores m.l1_misses m.l2_misses m.l3_misses
          m.heap_allocs m.heap_bytes budget.steps

(* The products of one source: each with the start of its line (name,
   product, digest), or only that line when its compile failed. *)
type group = {
  src : string;
  entry : string;
  args : unit -> Pipelines.arg list;
  products : (string * Pipelines.compiled option) list;
}

let compiled name how c =
  (Printf.sprintf "%s %s %s" name how (digest c), Some c)

let workload (w : Dcir_workloads.Workload.t) : group =
  let compile ?tier ?checked kind =
    Pipelines.compile ?tier ?checked kind ~src:w.src ~entry:w.entry
  in
  let o2 =
    List.map
      (fun kind ->
        compiled w.name (Pipelines.kind_name kind ^ "-O2") (compile kind))
      Pipelines.all_kinds
  in
  let o1 =
    compiled w.name "dcir-O1" (compile ~tier:Pipelines.O1 Pipelines.Dcir)
  in
  let checked =
    compiled w.name "dcir-checked" (compile ~checked:true Pipelines.Dcir)
  in
  {
    src = w.src;
    entry = w.entry;
    args = w.args;
    products = o2 @ [ o1; checked ];
  }

let generated (i : int) : group =
  let case = Dcir_fuzz.Gen.generate (Dcir_fuzz.Rng.derive 0x901d i) in
  let name = Printf.sprintf "gen%03d" i in
  let product =
    match
      Pipelines.compile_resilient ~autopar:true Pipelines.Dcir ~src:case.src
        ~entry:case.entry
    with
    | c, r ->
        compiled name
          ("dcir-resilient-autopar " ^ Pipelines.tier_name r.res_landed)
          c
    | exception e ->
        ( Printf.sprintf "%s dcir-resilient-autopar error %s" name
            (Pipelines.classify_exn e),
          None )
  in
  {
    src = case.src;
    entry = case.entry;
    args = case.args;
    products = [ product ];
  }

(* Every product is compiled before any is run. The printed IR indents
   nested regions from the column where they open, which depends on the
   width of the process-global serials; canonicalization renumbers the
   serials but keeps that indentation. So the compiles keep one fixed
   order that no reference compile interleaves. *)
let () =
  let workloads =
    List.map workload
      (Dcir_workloads.Polybench.all
      @ [ Dcir_workloads.Case_studies.fig2_example ])
  in
  let groups = workloads @ List.init 100 generated in
  List.iter
    (fun g ->
      let cost = lazy (cost_of ~src:g.src ~entry:g.entry ~args:g.args) in
      List.iter
        (function
          | line, None -> print_endline line
          | line, Some c -> Printf.printf "%s %s\n" line (Lazy.force cost c))
        g.products)
    groups
