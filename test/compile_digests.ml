(** Prints one content digest per compile product, so that a change to
    what any pass produces shows up as a one-line diff against
    [compile_digests.expected] (the [runtest] rule in [dune]; accept an
    intended change with [dune promote]).

    The products:
    - the 29 Polybench kernels through all five pipelines at O2;
    - the same kernels through dcir at O1, and through checked dcir;
    - 100 generated programs through the resilient, auto-parallelizing
      dcir ladder, with the tier each one landed at.

    A digest is taken over the canonical form of the printed IR
    ({!Dcir_support.Digest.canonical}), which renumbers the process-global
    serials, so it depends only on the product's structure. *)

open Dcir_core
module D = Dcir_support.Digest

let digest (c : Pipelines.compiled) : string =
  let text =
    match c with
    | Pipelines.CMlir m -> Dcir_mlir.Printer.module_to_string m
    | Pipelines.CSdfg s -> Dcir_sdfg.Printer.to_string s
  in
  D.of_string (D.canonical text)

let () =
  List.iter
    (fun (w : Dcir_workloads.Workload.t) ->
      let line how c = Printf.printf "%s %s %s\n" w.name how (digest c) in
      List.iter
        (fun kind ->
          line
            (Pipelines.kind_name kind ^ "-O2")
            (Pipelines.compile kind ~src:w.src ~entry:w.entry))
        Pipelines.all_kinds;
      line "dcir-O1"
        (Pipelines.compile ~tier:Pipelines.O1 Pipelines.Dcir ~src:w.src
           ~entry:w.entry);
      line "dcir-checked"
        (Pipelines.compile ~checked:true Pipelines.Dcir ~src:w.src
           ~entry:w.entry))
    Dcir_workloads.Polybench.all;
  for i = 0 to 99 do
    let case = Dcir_fuzz.Gen.generate (Dcir_fuzz.Rng.derive 0x901d i) in
    match
      Pipelines.compile_resilient ~autopar:true Pipelines.Dcir ~src:case.src
        ~entry:case.entry
    with
    | c, r ->
        Printf.printf "gen%03d dcir-resilient-autopar %s %s\n" i
          (Pipelines.tier_name r.res_landed)
          (digest c)
    | exception e ->
        Printf.printf "gen%03d dcir-resilient-autopar error %s\n" i
          (Pipelines.classify_exn e)
  done
