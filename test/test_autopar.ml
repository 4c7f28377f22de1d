(** Tests for the loop→map auto-parallelization subsystem (lib/autopar):
    conversion coverage on Polybench kernels, WCR reduction certificates,
    conflict reports for loops that must NOT be parallelized, validity of
    the rewritten SDFGs, and bit-identity of multi-domain execution. *)

open Dcir_workloads
module Pipelines = Dcir_core.Pipelines
module Loop_to_map = Dcir_autopar.Loop_to_map
module Sdfg = Dcir_sdfg.Sdfg
module Validate = Dcir_sdfg.Validate
module Oracle = Dcir_fuzz.Oracle

let compile_autopar ~(src : string) ~(entry : string) :
    Sdfg.t * Loop_to_map.report =
  match Pipelines.compile ~autopar:true Pipelines.Dcir ~src ~entry with
  | Pipelines.CSdfg sdfg -> (
      match !Pipelines.last_autopar_report with
      | Some r -> (sdfg, r)
      | None -> Alcotest.fail "autopar compile left no report")
  | Pipelines.CMlir _ -> Alcotest.fail "Dcir pipeline did not produce an SDFG"

let converted_classes (r : Loop_to_map.report) :
    (string * Sdfg.par_class) list list =
  List.filter_map
    (fun (e : Loop_to_map.entry) ->
      match e.en_outcome with
      | Loop_to_map.Converted { co_classes; _ } -> Some co_classes
      | Loop_to_map.Rejected _ -> None)
    r

let rejections (r : Loop_to_map.report) : string list =
  List.filter_map
    (fun (e : Loop_to_map.entry) ->
      match e.en_outcome with
      | Loop_to_map.Rejected msg -> Some msg
      | Loop_to_map.Converted _ -> None)
    r

(* All map scopes anywhere in the SDFG, outermost first. *)
let rec maps_of_graph (g : Sdfg.graph) : Sdfg.map_node list =
  List.concat_map
    (fun (n : Sdfg.node) ->
      match n.kind with
      | Sdfg.MapN mn -> mn :: maps_of_graph mn.m_body
      | Sdfg.Access _ | Sdfg.TaskletN _ -> [])
    (Sdfg.nodes g)

let maps_of (sdfg : Sdfg.t) : Sdfg.map_node list =
  List.concat_map
    (fun (s : Sdfg.state) -> maps_of_graph s.s_graph)
    (Sdfg.states sdfg)

let rec graph_has_wcr_write (g : Sdfg.graph) (name : string)
    (w : Sdfg.wcr) : bool =
  List.exists
    (fun (e : Sdfg.edge) ->
      match e.e_memlet with
      | Some m -> String.equal m.data name && m.wcr = Some w
      | None -> false)
    (Sdfg.edges g)
  || List.exists
       (fun (n : Sdfg.node) ->
         match n.kind with
         | Sdfg.MapN mn -> graph_has_wcr_write mn.m_body name w
         | _ -> false)
       (Sdfg.nodes g)

(* ------------------------------------------------------------------ *)
(* Conversion coverage: each kernel's counted loops either become
   certified map scopes or leave a concrete rejection witness, and the
   rewritten SDFG still validates. *)

let check_kernel ~(min_converted : int) (w : Workload.t) () =
  let sdfg, report = compile_autopar ~src:w.src ~entry:w.entry in
  Alcotest.(check bool) "report covers the kernel's loops" true (report <> []);
  let conv = converted_classes report in
  if List.length conv < min_converted then
    Alcotest.failf "only %d loop(s) converted, expected at least %d:@.%s"
      (List.length conv) min_converted
      (Format.asprintf "%a" Loop_to_map.pp_report report);
  let certified =
    List.filter (fun (mn : Sdfg.map_node) -> mn.m_par <> None) (maps_of sdfg)
  in
  Alcotest.(check bool) "each conversion left a certified map" true
    (List.length certified >= List.length conv);
  (match Validate.errors sdfg with
  | [] -> ()
  | errs ->
      Alcotest.failf "rewritten SDFG no longer validates:@.%s"
        (String.concat "\n"
           (List.map
              (fun (d : Validate.diagnostic) -> d.message)
              errs)))

(* ------------------------------------------------------------------ *)
(* WCR reductions: converted accumulation loops must carry a reduction
   class in their certificate, and the map body must actually perform the
   update through a WCR memlet (the executor's merge step relies on it). *)

let check_reduction (w : Workload.t) () =
  let sdfg, report = compile_autopar ~src:w.src ~entry:w.entry in
  let reductions =
    List.concat_map
      (List.filter (fun (_, c) ->
           match c with Sdfg.ParReduction _ -> true | _ -> false))
      (converted_classes report)
  in
  Alcotest.(check bool) "at least one reduction certified" true
    (reductions <> []);
  let certs =
    List.filter_map (fun (mn : Sdfg.map_node) ->
        Option.map (fun c -> (mn, c)) mn.m_par)
      (maps_of sdfg)
  in
  List.iter
    (fun (name, cls) ->
      match cls with
      | Sdfg.ParReduction wcr ->
          let backed =
            List.exists
              (fun ((mn : Sdfg.map_node), (c : Sdfg.par_cert)) ->
                List.mem_assoc name c.pc_classes
                && graph_has_wcr_write mn.m_body name wcr)
              certs
          in
          Alcotest.(check bool)
            (Printf.sprintf "reduction '%s' backed by a WCR write" name)
            true backed
      | _ -> ())
    reductions

(* Prefix sum: s is accumulated AND read every iteration (B[i] = s), so
   the loop is loop-carried — a WCR-shaped update that must NOT be turned
   into a parallel reduction. *)
let prefix_sum_src =
  {|
double kernel_prefix(double A[64], double B[64]) {
  double s = 0.0;
  for (int i = 0; i < 64; i++) {
    s = s + A[i];
    B[i] = s;
  }
  return s;
}
|}

let test_prefix_sum_not_parallelized () =
  let _, report = compile_autopar ~src:prefix_sum_src ~entry:"kernel_prefix" in
  Alcotest.(check int) "no loop converted" 0
    (List.length (converted_classes report));
  Alcotest.(check bool) "rejection carries a witness" true
    (rejections report <> [])

(* Stencil time loops carry values between iterations through the whole
   array; the conflict report must say which subsets may overlap. *)
let test_jacobi_time_loop_rejected () =
  let _, report =
    compile_autopar ~src:Polybench.jacobi_1d.src
      ~entry:Polybench.jacobi_1d.entry
  in
  Alcotest.(check bool) "some loop rejected" true (rejections report <> []);
  Alcotest.(check bool) "witness names the overlap" true
    (List.exists
       (fun msg -> Tutil.contains msg "may overlap")
       (rejections report))

(* ------------------------------------------------------------------ *)
(* Execution: the auto-parallelized program stays correct against the
   unoptimized reference, and multi-domain execution is bit-identical to
   serial — outputs, return value, and every machine metric. *)

let check_identity (w : Workload.t) () =
  let compiled =
    Pipelines.compile ~autopar:true Pipelines.Dcir ~src:w.src ~entry:w.entry
  in
  let args = w.args () in
  let reference =
    Pipelines.run
      (Pipelines.CMlir (Dcir_cfront.Polygeist.compile w.src))
      ~entry:w.entry args
  in
  let serial = Pipelines.run compiled ~entry:w.entry args in
  let par = Pipelines.run ~jobs:3 compiled ~entry:w.entry args in
  Alcotest.(check (option string))
    "autopar output matches the reference" None
    (Oracle.divergence reference serial);
  Alcotest.(check (option string))
    "parallel run bit-identical to serial" None
    (Pipelines.bitwise_divergence ~what:"serial and parallel runs" serial par)

(* A reduction map merges each chunk's private accumulator into the shared
   array after the chunk runs. Elements no iteration reduced into must come
   out as the sequential program leaves them -- bit for bit, so a -0.0
   stays -0.0 -- and must not be rewritten at all: under a parallel outer
   map they belong to sibling chunks that may be writing them right then,
   and rewriting one can lose that chunk's update. *)
let reduction_src =
  {|
void kernel_red(double C[8][8], double A[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int k = 0; k < 8; k++)
      for (int j = 0; j < 4; j++)
        C[i][j] += A[i][k];
}
|}

let test_reduction_merge_untouched () =
  let sdfg, report = compile_autopar ~src:reduction_src ~entry:"kernel_red" in
  Alcotest.(check bool) "some loop became a sum reduction" true
    (List.exists
       (List.exists (fun (_, c) -> c = Sdfg.ParReduction Sdfg.WcrSum))
       (converted_classes report));
  let args () =
    [
      Pipelines.AFloatArr (Array.make 64 (-0.0), [| 8; 8 |]);
      Pipelines.AFloatArr
        (Array.init 64 (fun x -> float_of_int (x mod 3)), [| 8; 8 |]);
    ]
  in
  let reference =
    Pipelines.run
      (Pipelines.CMlir (Dcir_cfront.Polygeist.compile reduction_src))
      ~entry:"kernel_red" (args ())
  in
  List.iter
    (fun jobs ->
      let r =
        Pipelines.run ~jobs (Pipelines.CSdfg sdfg) ~entry:"kernel_red"
          (args ())
      in
      List.iter2
        (fun (_, (want : Dcir_machine.Value.t array)) (_, got) ->
          Array.iteri
            (fun x w ->
              Alcotest.(check bool)
                (Printf.sprintf "jobs=%d C[%d] bit-identical to the reference"
                   jobs x)
                true
                (Dcir_machine.Value.equal w got.(x)))
            want)
        reference.outputs r.outputs)
    [ 1; 3 ]

let suite =
  ( "autopar",
    [
      Alcotest.test_case "gemm loops convert" `Quick
        (check_kernel ~min_converted:3 Polybench.gemm);
      Alcotest.test_case "mvt loops convert" `Quick
        (check_kernel ~min_converted:3 Polybench.mvt);
      Alcotest.test_case "atax loops convert" `Quick
        (check_kernel ~min_converted:3 Polybench.atax);
      Alcotest.test_case "bicg loops convert" `Quick
        (check_kernel ~min_converted:2 Polybench.bicg);
      Alcotest.test_case "gemm reduction certificates" `Quick
        (check_reduction Polybench.gemm);
      Alcotest.test_case "atax reduction certificates" `Quick
        (check_reduction Polybench.atax);
      Alcotest.test_case "prefix sum must stay serial" `Quick
        test_prefix_sum_not_parallelized;
      Alcotest.test_case "jacobi-1d time loop rejected" `Quick
        test_jacobi_time_loop_rejected;
      Alcotest.test_case "gemm serial/parallel identity" `Quick
        (check_identity Polybench.gemm);
      Alcotest.test_case "mvt serial/parallel identity" `Quick
        (check_identity Polybench.mvt);
      Alcotest.test_case "atax serial/parallel identity" `Quick
        (check_identity Polybench.atax);
      Alcotest.test_case "reduction merge leaves other elements alone" `Quick
        test_reduction_merge_untouched;
    ] )
