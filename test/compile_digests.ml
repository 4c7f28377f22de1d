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

    A digest is taken over the printed IR as it is. The printers name
    values and nodes per function and per SDFG, not by the process-wide
    ids they were minted with, so a digest depends only on the product,
    never on what was compiled before it.

    After the digest, each product is run once on the default (compiled)
    execution tier under a fresh budget, as
    {!Dcir_core.Pipelines.compare_pipelines} runs it, and the line
    carries:
    - [ok] or [WRONG]: agreement with the unoptimized reference, under
      [compare_pipelines]' rule {!Dcir_core.Pipelines.divergence} (return
      value and array outputs within rtol 1e-6);
    - [cycles] (exact, [%.17g]), [loads], [stores];
    - [misses]: L1/L2/L3 misses;
    - [heap_allocs], [heap_bytes];
    - [steps]: interpreter budget steps spent by the run.

    A product that traps prints [trap] and its
    {!Dcir_core.Pipelines.classify_exn} code instead of the costs.

    The driver also writes one line per product, under the same name, to
    the file named by its first argument ([compile_counts.expected] is
    its golden):
    - [control=ADMITTED/CHANGED data=ADMITTED/CHANGED]: the [PASS-ADMIT]
      events of an {!Dcir_obs.Events} stream installed around the
      product's compile, per pass domain, and how many of them changed
      the IR. A change to how often the pass drivers run a pass shows up
      there without touching a digest or a cost;
    - [compile_words=N run_words=M]: [Gc.minor_words] allocated by the
      product's compile and by its compiled-tier run (arguments built
      before the count starts). They repeat exactly from process to
      process, so a host-side allocation change shows up as a diff of
      them. They are counts of the default dev build that [dune runtest]
      uses: dune compiles library modules with [-opaque] there, so no
      function is inlined across modules, and a release build allocates
      differently. A product whose compile fails has no [run_words]. *)

open Dcir_core
module D = Dcir_support.Digest
module Budget = Dcir_resilience.Budget
module Events = Dcir_obs.Events
module Json = Dcir_obs.Json

let counts_oc =
  match Sys.argv with
  | [| _; path |] -> open_out path
  | _ -> failwith "usage: compile_digests COUNTS-FILE"

(* Minor-heap words allocated by [f ()], with its outcome. *)
let words (f : unit -> 'a) : ('a, exn) result * int =
  let w0 = Gc.minor_words () in
  let r = try Ok (f ()) with e -> Error e in
  (r, int_of_float (Gc.minor_words () -. w0))

(* Runs the compile [f] under a fresh event stream; returns its outcome
   and the product's pass counts and compile words. *)
let counted (f : unit -> 'a) : ('a, exn) result * string =
  let t = Events.create () in
  Events.install t;
  let r, cw = words f in
  Events.clear ();
  let admits = Events.with_code t "PASS-ADMIT" in
  let count domain =
    let admitted =
      List.filter (fun e -> Events.str_field e "domain" = domain) admits
    in
    let changed =
      List.filter
        (fun e -> Events.field e "changed" = Some (Json.Bool true))
        admitted
    in
    Printf.sprintf "%s=%d/%d" domain (List.length admitted)
      (List.length changed)
  in
  (r, Printf.sprintf "%s %s compile_words=%d" (count "control") (count "data") cw)

let print_counts ?run_words (name : string) (counts : string) : unit =
  match run_words with
  | Some w -> Printf.fprintf counts_oc "%s %s run_words=%d\n" name counts w
  | None -> Printf.fprintf counts_oc "%s %s\n" name counts

let digest (c : Pipelines.compiled) : string =
  D.of_string
    (match c with
    | Pipelines.CMlir m -> Dcir_mlir.Printer.module_to_string m
    | Pipelines.CSdfg s -> Dcir_sdfg.Printer.to_string s)

(* The run of [c] under a fresh budget, with the words it allocated. *)
let run ~entry ~args (c : Pipelines.compiled) :
    (Pipelines.run_result * Budget.t, string) result * int =
  let budget = Budget.create () in
  let args = args () in
  let r, w = words (fun () -> Pipelines.run ~budget c ~entry args) in
  ( (match r with
    | Ok r -> Ok (r, budget)
    | Error e -> Error (Pipelines.classify_exn e)),
    w )

(* The line of product [c]: its name and digest, then whether it agrees
   with [reference] (the run of the unoptimized product) and its costs;
   with the words its run allocated. *)
let line ~entry ~args ~reference (name : string) (c : Pipelines.compiled) :
    string * int =
  let d = digest c in
  let outcome, run_words = run ~entry ~args c in
  let costs =
    match outcome with
    | Error code -> "trap " ^ code
    | Ok (r, budget) ->
        let m = r.metrics in
        let ok =
          match Lazy.force reference with
          | Ok (ref_r, _) -> Pipelines.divergence ref_r r = None
          | Error _ -> false
        in
        Printf.sprintf
          "%s cycles=%.17g loads=%d stores=%d misses=%d/%d/%d heap_allocs=%d \
           heap_bytes=%d steps=%d"
          (if ok then "ok" else "WRONG")
          m.cycles m.loads m.stores m.l1_misses m.l2_misses m.l3_misses
          m.heap_allocs m.heap_bytes budget.steps
  in
  (Printf.sprintf "%s %s %s" name d costs, run_words)

let reference_run ~src ~entry ~args =
  lazy
    (fst
       (run ~entry ~args (Pipelines.CMlir (Dcir_cfront.Polygeist.compile src))))

(* Writes both lines of one compiled product. *)
let print_product ~entry ~args ~reference (name : string) (counts : string)
    (c : Pipelines.compiled) : unit =
  let l, run_words = line ~entry ~args ~reference name c in
  print_counts ~run_words name counts;
  print_endline l

let workload (w : Dcir_workloads.Workload.t) : unit =
  let reference = reference_run ~src:w.src ~entry:w.entry ~args:w.args in
  let product how (c, counts) =
    let name = w.name ^ " " ^ how in
    let c = match c with Ok c -> c | Error e -> raise e in
    print_product ~entry:w.entry ~args:w.args ~reference name counts c
  in
  let compile ?tier ?checked kind =
    counted (fun () ->
        Pipelines.compile ?tier ?checked kind ~src:w.src ~entry:w.entry)
  in
  List.iter
    (fun kind -> product (Pipelines.kind_name kind ^ "-O2") (compile kind))
    Pipelines.all_kinds;
  product "dcir-O1" (compile ~tier:Pipelines.O1 Pipelines.Dcir);
  product "dcir-checked" (compile ~checked:true Pipelines.Dcir)

let generated (i : int) : unit =
  let case = Dcir_fuzz.Gen.generate (Dcir_fuzz.Rng.derive 0x901d i) in
  let name = Printf.sprintf "gen%03d dcir-resilient-autopar" i in
  match
    counted (fun () ->
        Pipelines.compile_resilient ~autopar:true Pipelines.Dcir ~src:case.src
          ~entry:case.entry)
  with
  | Ok (c, r), counts ->
      let name = name ^ " " ^ Pipelines.tier_name r.res_landed in
      let reference =
        reference_run ~src:case.src ~entry:case.entry ~args:case.args
      in
      print_product ~entry:case.entry ~args:case.args ~reference name counts c
  | Error e, counts ->
      print_counts name counts;
      Printf.printf "%s error %s\n" name (Pipelines.classify_exn e)

let () =
  List.iter workload
    (Dcir_workloads.Polybench.all
    @ [ Dcir_workloads.Case_studies.fig2_example ]);
  for i = 0 to 99 do
    generated i
  done;
  close_out counts_oc
