(** The five compiler products of the evaluation (§7.1), as pass pipelines
    over the shared substrates:

    - [Gcc], [Clang]: production-compiler proxies — full control-centric
      optimization on the MLIR form (mem2reg, canonicalize, CSE, DCE,
      inlining, LICM, adjacent-loop fusion, register promotion; Clang
      additionally forwards stores to loads across straight-line code);
    - [Mlir]: the Polygeist + mlir-opt pipeline — control-centric passes
      only, {e without} loop fusion or register promotion (the
      memref-conservatism gap §7.2 measures);
    - [Dace]: the DaCe C frontend baseline — no control-centric passes,
      opaque per-statement tasklets, full data-centric pipeline;
    - [Dcir]: the paper's contribution — the MLIR pipeline, then conversion
      to the sdfg dialect, translation to the SDFG IR, and the full
      data-centric pipeline.

    All products execute on the same simulated machine; an optional
    cost-model override selects the ICC/SLEEF vector-math variant (§7.3). *)

open Dcir_mlir
open Dcir_machine
module P = Dcir_mlir_passes
module Sdfg = Dcir_sdfg.Sdfg
module Obs = Dcir_obs.Obs
module Json = Dcir_obs.Json
module Events = Dcir_obs.Events
module Budget = Dcir_resilience.Budget
module Chaos = Dcir_resilience.Chaos

type kind = Gcc | Clang | Mlir | Dace | Dcir

let kind_name = function
  | Gcc -> "gcc"
  | Clang -> "clang"
  | Mlir -> "mlir"
  | Dace -> "dace"
  | Dcir -> "dcir"

let all_kinds = [ Gcc; Clang; Mlir; Dace; Dcir ]

type compiled =
  | CMlir of Ir.modul
  | CSdfg of Sdfg.t

module Diag = Dcir_support.Diagnostics

(* ------------------------------------------------------------------ *)
(* Compilation *)

let base_passes : Pass.t list =
  [ P.Mem2reg.pass; P.Canonicalize.pass; P.Cse.pass; P.Dce.pass ]

let control_passes (kind : kind) : Pass.t list =
  match kind with
  | Gcc ->
      base_passes
      @ [
          P.Inline.pass; P.Licm.pass; P.Lcm.pass; P.Loop_fusion.pass;
          P.Reg_promote.pass;
        ]
  | Clang ->
      base_passes
      @ [
          P.Inline.pass; P.Licm.pass; P.Store_forward.pass; P.Lcm.pass;
          P.Loop_fusion.pass; P.Reg_promote.pass;
        ]
  | Mlir ->
      (* loop-invariant code motion, DCE, CSE, inlining (§4) — no fusion,
         register promotion, or PRE at the memref level: the paper's
         MLIR proxy is deliberately the weakest control pipeline. *)
      base_passes @ [ P.Inline.pass; P.Licm.pass; P.Store_forward.pass ]
  | Dcir ->
      base_passes
      @ [ P.Inline.pass; P.Licm.pass; P.Store_forward.pass; P.Lcm.pass ]
  | Dace -> []

(* ------------------------------------------------------------------ *)
(* Optimization tiers — the rungs of the graceful-degradation ladder. *)

type tier = O2 | O1 | O0 | Unopt

let tier_name = function
  | O2 -> "O2"
  | O1 -> "O1"
  | O0 -> "O0"
  | Unopt -> "unoptimized"

let next_tier = function
  | O2 -> Some O1
  | O1 -> Some O0
  | O0 -> Some Unopt
  | Unopt -> None

(* Higher rank = more optimization. *)
let tier_rank = function O2 -> 3 | O1 -> 2 | O0 -> 1 | Unopt -> 0

(* Control-centric pass set at each tier: [O2] is the pipeline's full
   set, [O1] keeps only the base simplifications, below that nothing
   runs. *)
let control_passes_at (tier : tier) (kind : kind) : Pass.t list =
  match tier with
  | O2 -> control_passes kind
  | O1 -> ( match kind with Dace -> [] | _ -> base_passes)
  | O0 | Unopt -> []

(* Data-centric stage selection: [O2] = full pipeline, [O1] drops memory
   scheduling, [O0] keeps only simplify, [Unopt] runs no passes at all. *)
let dace_levels_at (tier : tier) : bool * bool * bool =
  (* (run_at_all, o1, o2) *)
  match tier with
  | O2 -> (true, true, true)
  | O1 -> (true, true, false)
  | O0 -> (true, false, false)
  | Unopt -> (false, false, false)

(* Compile phases, each recording an {!Obs} span (no-ops when telemetry is
   disabled) so `--timing`/`--trace` show where compile time goes, and a
   PHASE decision event when a stream is installed. A stage that rejects
   its input raises {!Diag.Error} with its own stable code and phase. *)

let phase_span (name : string) (f : unit -> 'a) : 'a =
  Events.emit ~code:"PHASE" [ ("name", Json.Str name) ];
  Obs.with_span ~cat:"phase" name f

(* Charge-back accounting: when a budget and an event stream are both
   live, report the fuel a phase consumed as a BUDGET-SPEND event — also
   on the exhaustion path, where the spend is exactly what tripped the
   ladder. *)
let with_fuel_spend ?(budget : Budget.t option) (phase : string)
    (f : unit -> 'a) : 'a =
  match budget with
  | Some b when Events.active () ->
      let fuel0 = b.Budget.fuel in
      Fun.protect
        ~finally:(fun () ->
          Events.emit ~code:"BUDGET-SPEND"
            [
              ("phase", Json.Str phase);
              ("resource", Json.Str "fuel");
              ("spent", Json.Int (b.Budget.fuel - fuel0));
            ])
        f
  | _ -> f ()

let frontend_phase (src : string) : Ir.modul =
  phase_span "c-frontend" (fun () -> Dcir_cfront.Polygeist.compile src)

let control_phase ?(checked = false) ?budget ?reproducer_dir
    ~(passes : Pass.t list) (m : Ir.modul) : unit =
  phase_span "control-passes" (fun () ->
      let _, (st : Pass.pipeline_stats) =
        Pass.run_to_fixpoint_stats ~checked ?budget ?reproducer_dir passes m
      in
      Obs.set_args
        (("rounds", Json.Int st.rounds)
        :: ("skipped", Json.Int st.skipped)
        ::
        (if st.incidents = [] then []
         else [ ("rollbacks", Json.Int (List.length st.incidents)) ])))

let verify_phase (m : Ir.modul) : unit =
  phase_span "verify" (fun () -> Verifier.verify_exn m)

(** Conflict report of the most recent auto-parallelizing compile — one
    entry per loop inspected by {!Dcir_autopar.Loop_to_map.parallelize}.
    [None] until a [~autopar:true] compile runs. *)
let last_autopar_report : Dcir_autopar.Loop_to_map.report option ref =
  ref None

let autopar_phase (sdfg : Sdfg.t) : unit =
  phase_span "autopar" (fun () ->
      let report = Dcir_autopar.Loop_to_map.parallelize sdfg in
      last_autopar_report := Some report;
      let converted =
        List.length
          (List.filter
             (fun (e : Dcir_autopar.Loop_to_map.entry) ->
               match e.en_outcome with
               | Dcir_autopar.Loop_to_map.Converted _ -> true
               | Dcir_autopar.Loop_to_map.Rejected _ -> false)
             report)
      in
      Obs.set_args
        [
          ("loops", Json.Int (List.length report));
          ("converted", Json.Int converted);
        ];
      match Dcir_sdfg.Validate.errors sdfg with
      | [] -> ()
      | errs ->
          Diag.fail ~code:"E-AUTOPAR-VERIFY" ~phase:Diag.DataOpt "%s"
            (String.concat "; "
               (List.map
                  (fun (d : Dcir_sdfg.Validate.diagnostic) -> d.message)
                  errs)))

let dace_phase ?(checked = false) ?budget ?reproducer_dir ?(o1 = true)
    ?(o2 = true) ~(disable : string list) (sdfg : Sdfg.t) : unit =
  phase_span "dace-optimize" (fun () ->
      let (st : Dcir_dace_passes.Driver.stats) =
        Dcir_dace_passes.Driver.optimize ~o1 ~o2 ~disable ~checked ?budget
          ?reproducer_dir sdfg
      in
      Obs.set_args
        ([
           ("rounds", Json.Int st.rounds);
           ("skipped", Json.Int st.skipped);
           ("eliminated_containers", Json.Int st.eliminated_containers);
         ]
        @
        if st.incidents = [] then []
        else [ ("rollbacks", Json.Int (List.length st.incidents)) ]))

(** Compile [src] under pipeline [kind]. [~checked] runs every optimization
    pass (control-centric and data-centric) under snapshot / re-verify /
    rollback — see {!Dcir_mlir.Pass} and {!Dcir_dace_passes.Driver};
    [reproducer_dir] overrides where crash reproducers land. [~autopar]
    additionally runs the loop→map auto-parallelizer on SDFG products
    (Dace/Dcir) after data-centric optimization, leaving the conflict
    report in {!last_autopar_report}; it is off by default so the standard
    pipelines are unchanged.

    [tier] selects the optimization level ({!O2}, the default, is the
    full pipeline); [budget] charges optimization fuel for every pass
    application; [validate] re-validates SDFG products after data-centric
    optimization (an [E-VALIDATE] diagnostic instead of latent
    corruption — the degradation ladder always sets it). *)
let compile ?(optimize_sdfg = true) ?(disable = []) ?(checked = false)
    ?(autopar = false) ?budget ?(tier = O2) ?(validate = false)
    ?reproducer_dir (kind : kind) ~(src : string) ~(entry : string) :
    compiled =
  let run_all, dace_o1, dace_o2 = dace_levels_at tier in
  let control m =
    (* [disable] names passes by pname on both sides of the bridge: a name
       matching a control pass drops it here, anything else is forwarded to
       the data-centric driver below. *)
    match
      List.filter
        (fun (p : Pass.t) -> not (List.mem p.Pass.pname disable))
        (control_passes_at tier kind)
    with
    | [] -> ()
    | passes ->
        with_fuel_spend ?budget "control-passes" (fun () ->
            control_phase ~checked ?budget ?reproducer_dir ~passes m)
  in
  let dace_opt sdfg =
    if optimize_sdfg && run_all then
      with_fuel_spend ?budget "dace-optimize" (fun () ->
          dace_phase ~checked ?budget ?reproducer_dir ~o1:dace_o1 ~o2:dace_o2
            ~disable sdfg);
    if autopar then autopar_phase sdfg;
    if validate then
      match Dcir_sdfg.Validate.errors sdfg with
      | [] -> ()
      | errs ->
          Diag.fail ~code:"E-VALIDATE" ~phase:Diag.Validate "%s"
            (String.concat "; "
               (List.map
                  (fun (d : Dcir_sdfg.Validate.diagnostic) -> d.message)
                  errs))
  in
  Obs.with_span ~cat:"pipeline"
    ("compile:" ^ kind_name kind)
    (fun () ->
      match kind with
      | Gcc | Clang | Mlir ->
          let m = frontend_phase src in
          control m;
          verify_phase m;
          CMlir m
      | Dace ->
          let sdfg =
            phase_span "dace-frontend" (fun () -> Dace_frontend.compile src ~entry)
          in
          dace_opt sdfg;
          CSdfg sdfg
      | Dcir ->
          let m = frontend_phase src in
          control m;
          verify_phase m;
          let converted =
            phase_span "convert" (fun () -> Converter.convert_module m)
          in
          let sdfg =
            phase_span "translate" (fun () ->
                Translator.translate_module converted ~entry)
          in
          dace_opt sdfg;
          CSdfg sdfg)

(* ------------------------------------------------------------------ *)
(* Graceful degradation: retry failed compiles down the tier ladder. *)

type degradation = {
  deg_tier : tier;  (** the tier that failed *)
  deg_code : string;  (** stable classification (diagnostic/budget code) *)
  deg_detail : string;  (** human-readable reason *)
}

type resilience_report = {
  res_requested : tier;
  res_landed : tier;
  res_degradations : degradation list;  (** chronological, [[]] = clean *)
  res_dropped : string list;
      (** optimization work dropped relative to the request: control pass
          names and data-centric stage names *)
}

let dace_stage_names (t : tier) (kind : kind) : string list =
  match kind with
  | Dace | Dcir -> (
      match t with
      | O2 -> [ "simplify"; "reduce-data-movement"; "memory-scheduling" ]
      | O1 -> [ "simplify"; "reduce-data-movement" ]
      | O0 -> [ "simplify" ]
      | Unopt -> [])
  | Gcc | Clang | Mlir -> []

let dropped_between ~(requested : tier) ~(landed : tier) (kind : kind) :
    string list =
  let control t =
    List.map (fun (p : Pass.t) -> p.Pass.pname) (control_passes_at t kind)
  in
  let keep_control = control landed and keep_stages = dace_stage_names landed kind in
  List.filter (fun p -> not (List.mem p keep_control)) (control requested)
  @ List.filter
      (fun s -> not (List.mem s keep_stages))
      (dace_stage_names requested kind)

(* Stable classification of a compile failure — diagnostic codes, budget
   codes, chaos fault names. Events and journal entries use only this (raw
   messages can embed globally-allocated SSA ids, which would break their
   byte-reproducibility). *)
let classify_exn (e : exn) : string =
  match e with
  | Budget.Exhausted (k, _) -> Budget.kind_code k
  | Diag.Error d -> d.code
  | Chaos.Injected (f, _) -> "chaos:" ^ Chaos.fault_name f
  | Machine.Fault _ -> "E-FAULT"
  | Failure _ -> "E-FAILURE"
  | e -> "E-EXN:" ^ Printexc.exn_slot_name e

let describe_exn (e : exn) : string =
  match e with Diag.Error d -> Diag.to_string d | e -> Printexc.to_string e

(** Compile with the graceful-degradation ladder: attempt [tier] (default
    {!O2}); when a pass exhausts its fuel, fails verification, or
    crashes, retry one tier lower (O2 → O1 → O0 → unoptimized), always
    returning a runnable artifact plus the report of what was dropped and
    why. Each attempt restarts from a fresh frontend module under a fresh
    fuel budget built from [limits]. Frontend rejections (invalid input)
    are not degradable and re-raise; so does a failure of the final
    unoptimized rung (nothing is left to drop).

    [floor] (default {!Unopt}) bounds the ladder from below: the
    degradation stops — re-raising the failure — rather than attempt a
    tier below it. [~floor] equal to [~tier] makes a single-rung ladder,
    which is how [dcir serve] distributes the ladder across its retry
    queue: each attempt runs exactly one tier, and the serve-side
    escalator re-queues the request at the next tier with backoff.

    [budget], when given, is charged instead of a fresh per-rung budget
    built from [limits] — the caller reads the spend off it afterwards
    (serve uses this for cross-request tenant accounting) and is then
    responsible for applying {!Chaos.fuel_limit} itself. *)
let compile_resilient ?(tier = O2) ?(floor = Unopt) ?(limits = Budget.default)
    ?budget ?(checked = false) ?(autopar = false) ?(disable = [])
    ?reproducer_dir (kind : kind) ~(src : string) ~(entry : string) :
    compiled * resilience_report =
  let rec attempt (t : tier) (degs : degradation list) =
    let budget =
      match budget with
      | Some b -> b
      | None ->
          let fuel = Chaos.fuel_limit ~default:limits.Budget.max_fuel in
          Budget.create ~limits:{ limits with Budget.max_fuel = fuel } ()
    in
    Events.emit ~code:"TIER-TRY"
      [
        ("pipeline", Json.Str (kind_name kind));
        ("tier", Json.Str (tier_name t));
      ];
    match
      compile ~disable ~checked
        ~autopar:(autopar && t <> Unopt)
        ~budget ~tier:t ~validate:true ?reproducer_dir kind ~src ~entry
    with
    | compiled ->
        let report =
          {
            res_requested = tier;
            res_landed = t;
            res_degradations = List.rev degs;
            res_dropped = dropped_between ~requested:tier ~landed:t kind;
          }
        in
        Events.emit ~code:"TIER-LAND"
          [
            ("pipeline", Json.Str (kind_name kind));
            ("requested", Json.Str (tier_name tier));
            ("landed", Json.Str (tier_name t));
            ("degradations", Json.Int (List.length report.res_degradations));
            ("dropped", Json.Int (List.length report.res_dropped));
          ];
        (compiled, report)
    | exception (Diag.Error { phase = Diag.Frontend; _ } as e) -> raise e
    | exception e -> (
        let code = classify_exn e in
        Events.emit ~code:"TIER-FAIL"
          [
            ("pipeline", Json.Str (kind_name kind));
            ("tier", Json.Str (tier_name t));
            ("reason", Json.Str code);
          ];
        let deg = { deg_tier = t; deg_code = code; deg_detail = describe_exn e } in
        match next_tier t with
        | Some t' when tier_rank t' >= tier_rank floor ->
            attempt t' (deg :: degs)
        | Some _ | None -> raise e)
  in
  attempt tier []

(** One line per ladder event, for CLI degradation reports. *)
let resilience_report_lines (r : resilience_report) : string list =
  if r.res_degradations = [] then []
  else
    List.map
      (fun d ->
        Printf.sprintf "degraded: tier %s failed (%s): %s" (tier_name d.deg_tier)
          d.deg_code d.deg_detail)
      r.res_degradations
    @ [
        Printf.sprintf "landed at tier %s; dropped: %s" (tier_name r.res_landed)
          (match r.res_dropped with
          | [] -> "(nothing)"
          | l -> String.concat ", " l);
      ]

(* ------------------------------------------------------------------ *)
(* Execution *)

type arg =
  | AFloatArr of float array * int array  (** data, dims *)
  | AIntArr of int array * int array
  | AInt of int
  | AFloat of float

type run_result = {
  return_value : Value.t option;
  outputs : (int * Value.t array) list;
      (** arg position -> final contents, for array args *)
  metrics : Metrics.t;
}

(** Relative tolerance of {!divergence}: floating-point reassociation. *)
let rtol = 1e-6

(** [divergence reference r] — [None] when [r] agrees with [reference]:
    the same return value and the same array outputs (argument positions
    and lengths), every value within {!rtol}. Otherwise the first
    disagreement, described. Shape-safe: outputs of another shape
    diverge, they never raise. *)
let divergence (reference : run_result) (r : run_result) : string option =
  match (r.return_value, reference.return_value) with
  | Some a, Some b when not (Value.close ~rtol a b) ->
      Some
        (Printf.sprintf "return value %s, reference returned %s"
           (Value.to_string a) (Value.to_string b))
  | Some _, None -> Some "returned a value, reference returned none"
  | None, Some _ -> Some "returned no value, reference returned one"
  | _ ->
      let ref_outs = reference.outputs and outs = r.outputs in
      if List.map fst outs <> List.map fst ref_outs then
        Some "array outputs cover different argument positions"
      else
        List.fold_left2
          (fun acc (pos, xs) (_, ys) ->
            match acc with
            | Some _ -> acc
            | None ->
                if Array.length xs <> Array.length ys then
                  Some
                    (Printf.sprintf
                       "output arg %d has %d elements, reference has %d" pos
                       (Array.length xs) (Array.length ys))
                else
                  let bad = ref None in
                  Array.iteri
                    (fun i x ->
                      if !bad = None && not (Value.close ~rtol x ys.(i)) then
                        bad :=
                          Some
                            (Printf.sprintf
                               "output arg %d differs at flat index %d: %s, \
                                reference %s"
                               pos i (Value.to_string x)
                               (Value.to_string ys.(i))))
                    xs;
                  !bad)
          None outs ref_outs

(** [bitwise_divergence ~what a b] — [None] when [a] and [b] are the same
    run bit for bit: the same return value and array outputs
    ({!Value.equal}) and the same machine metrics ({!Metrics.equal}).
    This is the identity rule between execution tiers and between serial
    and parallel runs. Otherwise the first difference, described, naming
    [what] was compared. *)
let bitwise_divergence ~(what : string) (a : run_result) (b : run_result) :
    string option =
  if not (Option.equal Value.equal a.return_value b.return_value) then
    Some (Printf.sprintf "return value differs between %s" what)
  else if
    not
      (List.equal
         (fun (i, xs) (j, ys) ->
           i = j
           && Array.length xs = Array.length ys
           && Array.for_all2 Value.equal xs ys)
         a.outputs b.outputs)
  then Some (Printf.sprintf "array outputs differ bitwise between %s" what)
  else if not (Metrics.equal a.metrics b.metrics) then
    Some
      (Printf.sprintf
         "machine metrics differ between %s (%.0f cycles / %d loads vs %.0f \
          cycles / %d loads)"
         what a.metrics.cycles a.metrics.loads b.metrics.cycles
         b.metrics.loads)
  else None

(* Materialize argument buffers (uncharged: the harness owns them, like
   Polybench's pre-allocated arrays): each argument binds to an array
   buffer with its dims or to a scalar value. *)
let make_buffers (machine : Machine.t) (args : arg list) : Interp.rtval list =
  let bufs =
    List.map
      (fun a ->
        match a with
        | AFloatArr (data, dims) ->
            let buf =
              Machine.alloc machine ~storage:Machine.Heap
                ~elems:(Array.length data) ~elem_bytes:8
                ~zero_init:(Value.VFloat 0.0)
            in
            Array.iteri (fun i v -> Machine.poke buf i (Value.VFloat v)) data;
            Interp.Buf { buf; dims }
        | AIntArr (data, dims) ->
            let buf =
              Machine.alloc machine ~storage:Machine.Heap
                ~elems:(Array.length data) ~elem_bytes:8
                ~zero_init:(Value.VInt 0)
            in
            Array.iteri (fun i v -> Machine.poke buf i (Value.VInt v)) data;
            Interp.Buf { buf; dims }
        | AInt n -> Interp.Scalar (Value.VInt n)
        | AFloat f -> Interp.Scalar (Value.VFloat f))
      args
  in
  Machine.reset_metrics machine;
  bufs

let snapshot_outputs (bufs : Interp.rtval list) : (int * Value.t array) list =
  List.mapi (fun i b -> (i, b)) bufs
  |> List.filter_map (fun (i, b) ->
         match b with
         | Interp.Buf { buf; _ } -> Some (i, Machine.snapshot buf)
         | Interp.Scalar _ -> None)

(** Interpreter execution tier, for both IRs: [`Tree] walks the IR
    directly — the reference semantics; [`Compiled] (default) runs MLIR
    products through the closure-compiled interpreter and lowers SDFG
    products to the flat register VM of {!Dcir_bytecode}. Outputs, traps
    and machine metrics are bit-identical across both tiers — they
    differ only in host-side wall-clock. Profiles come from the tree
    walkers alone, so a run given a profile walks the tree whichever
    tier it asks for. *)
type interp_mode = [ `Tree | `Compiled ]

(** The bytecode program for [sdfg], lowered afresh on every call. *)
let plan_for (sdfg : Sdfg.t) : Dcir_bytecode.Isa.program =
  Dcir_bytecode.Lower.lower sdfg

(* A run given a number of arguments other than its entry's [params]
   fails with the same diagnostic on both IRs. *)
let check_arg_count ~(entry : string) ~(params : int) (args : arg list) : unit
    =
  if params <> List.length args then
    Diag.fail ~code:"E-ARGS" ~phase:Diag.Execute
      "@%s expects %d arguments, got %d" entry params (List.length args)

let run ?(cfg = Cost.default) ?(budget : Budget.t option)
    ?(profile : Obs.Profile.t option)
    ?(interp_mode : interp_mode = `Compiled) ?(jobs = 1)
    (compiled : compiled) ~(entry : string) (args : arg list) : run_result =
  Events.emit ~code:"EXEC-MODE"
    [
      ( "mode",
        Json.Str (match interp_mode with `Tree -> "tree" | `Compiled -> "compiled")
      );
      ("ir", Json.Str (match compiled with CMlir _ -> "mlir" | CSdfg _ -> "sdfg"));
      ("jobs", Json.Int jobs);
    ];
  let emit_run_spend () =
    match budget with
    | Some b when Events.active () ->
        Events.emit ~code:"BUDGET-SPEND"
          [
            ("phase", Json.Str "execute");
            ("resource", Json.Str "steps");
            ("spent", Json.Int b.Budget.steps);
          ];
        Events.emit ~code:"BUDGET-SPEND"
          [
            ("phase", Json.Str "execute");
            ("resource", Json.Str "allocs");
            ("spent", Json.Int b.Budget.allocs);
          ]
    | _ -> ()
  in
  let machine = Machine.create ~cfg ?budget () in
  let bufs = make_buffers machine args in
  let result =
  match compiled with
  | CMlir m ->
      (match Ir.find_func m entry with
      | Some f -> check_arg_count ~entry ~params:(List.length f.fparams) args
      | None -> ());
      let mode =
        match interp_mode with `Tree -> Interp.Tree | `Compiled -> Interp.Compiled
      in
      let results, _ = Interp.run ~machine ?profile ~mode m ~entry bufs in
      {
        return_value = (match results with v :: _ -> Some v | [] -> None);
        outputs = snapshot_outputs bufs;
        metrics = Machine.metrics machine;
      }
  | CSdfg sdfg ->
      (* Lower before binding arguments, so that a lowering failure
         leaves the machine untouched. The VM keeps no profile, so a
         profiled run walks the tree. *)
      let program =
        match (interp_mode, profile) with
        | `Compiled, None -> Some (plan_for sdfg)
        | `Tree, _ | `Compiled, Some _ -> None
      in
      check_arg_count ~entry ~params:(List.length sdfg.param_order) args;
      let buffers = ref [] in
      let symbols = ref [] in
      List.iter2
        (fun pname b ->
          match b with
          | Interp.Buf { buf; dims } ->
              if Hashtbl.mem sdfg.containers pname then begin
                buffers := (pname, buf, dims) :: !buffers;
                (* Bind free size symbols from the concrete dims. *)
                let c = Sdfg.container sdfg pname in
                List.iteri
                  (fun i dim_expr ->
                    match dim_expr with
                    | Dcir_symbolic.Expr.Sym s
                      when not (List.mem_assoc s !symbols) ->
                        symbols := (s, dims.(i)) :: !symbols
                    | _ -> ())
                  c.shape
              end
          | Interp.Scalar v -> (
              if Hashtbl.mem sdfg.containers pname then begin
                let buf =
                  Machine.alloc machine ~storage:Machine.Register ~elems:1
                    ~elem_bytes:8 ~zero_init:v
                in
                Machine.poke buf 0 v;
                buffers := (pname, buf, [||]) :: !buffers
              end;
              match v with
              | Value.VInt n -> symbols := (pname, n) :: !symbols
              | Value.VFloat _ -> ()))
        sdfg.param_order bufs;
      let res =
        match program with
        | None ->
            Dcir_sdfg.Interp.run ~machine ?profile ~jobs sdfg
              ~buffers:!buffers ~symbols:!symbols ()
        | Some prog ->
            Dcir_bytecode.Vm.run ~machine ~jobs prog
              ~buffers:!buffers ~symbols:!symbols ()
      in
      {
        return_value = res.return_value;
        outputs = snapshot_outputs bufs;
        metrics = Machine.metrics machine;
      }
  in
  emit_run_spend ();
  result

(* ------------------------------------------------------------------ *)
(* Whole-benchmark helper: compile once, run, verify against a reference. *)

type measurement = {
  pipeline : string;
  cycles : float;
  metrics : Metrics.t;
  correct : bool;
  profile : Obs.Profile.t option;
      (** runtime attribution, when requested via [with_profile] *)
  landed_tier : string option;
      (** the tier the degradation ladder landed at, in [~degrade] runs *)
}

(** Machine-readable form of one measurement — the schema `dcir bench
    --json` and `bench/main.exe --json` reports are built from. *)
let measurement_json (m : measurement) : Json.t =
  Json.Obj
    ([
      ("name", Json.Str m.pipeline);
      ("cycles", Json.Float m.cycles);
      ("loads", Json.Int m.metrics.loads);
      ("stores", Json.Int m.metrics.stores);
      ("bytes_moved", Json.Int (Metrics.bytes_moved m.metrics));
      ("heap_allocs", Json.Int m.metrics.heap_allocs);
      ("heap_bytes", Json.Int m.metrics.heap_bytes);
      ("l1_misses", Json.Int m.metrics.l1_misses);
      ("l2_misses", Json.Int m.metrics.l2_misses);
      ("l3_misses", Json.Int m.metrics.l3_misses);
      ("correct", Json.Bool m.correct);
    ]
    @ match m.landed_tier with
      | Some t -> [ ("tier", Json.Str t) ]
      | None -> [])

(** Run a workload through every pipeline; correctness is checked against
    the unoptimized MLIR interpretation by {!divergence}. [with_profile]
    collects runtime attribution for each pipeline into
    [measurement.profile]. *)
let compare_pipelines ?(kinds = all_kinds) ?(cfg = Cost.default)
    ?(with_profile = false) ?(interp_mode : interp_mode = `Compiled)
    ?(limits = Budget.default) ?(degrade = false) ~(src : string)
    ~(entry : string) (args : arg list) : measurement list =
  let fresh_budget () = Budget.create ~limits () in
  (* Reference: direct lowering, no optimization at all. *)
  let reference =
    Obs.with_span ~cat:"run" "run:reference" (fun () ->
        let m = Dcir_cfront.Polygeist.compile src in
        run ~cfg ~budget:(fresh_budget ()) ~interp_mode (CMlir m) ~entry args)
  in
  List.map
    (fun kind ->
      let compiled, landed_tier =
        if degrade then
          let c, report = compile_resilient ~limits kind ~src ~entry in
          (c, Some (tier_name report.res_landed))
        else (compile ~budget:(fresh_budget ()) kind ~src ~entry, None)
      in
      let profile = if with_profile then Some (Obs.Profile.create ()) else None in
      let r =
        Obs.with_span ~cat:"run"
          ("run:" ^ kind_name kind)
          (fun () ->
            run ~cfg ~budget:(fresh_budget ()) ?profile ~interp_mode compiled
              ~entry args)
      in
      {
        pipeline = kind_name kind;
        cycles = r.metrics.cycles;
        metrics = r.metrics;
        correct = divergence reference r = None;
        profile;
        landed_tier;
      })
    kinds
