(** Differential oracle: run one generated program through all the
    pipelines — the five compilation pipelines, the bytecode tier against
    the tree walker, and (optionally) the auto-parallelizing pipeline —
    and compare against the unoptimized reference.

    The reference is the direct Polygeist lowering executed with no
    optimization at all — the same baseline
    {!Dcir_core.Pipelines.compare_pipelines} uses. A pipeline {e fails} the
    oracle when it either crashes (any exception out of compile or run) or
    diverges (return value or any array output differs from the reference
    beyond floating-point reassociation tolerance, or has a different
    shape). A trapping reference (integer division by zero — reachable
    only under the {!Gen.trap_cfg} grammar) flips the oracle into
    trap-parity mode: every pipeline must then trap with the same kind,
    and an optimized pipeline that runs to completion has erased a trap.

    Crashes caused by the frontend rejecting the program (lex / parse /
    sema / lowering errors) are flagged [f_invalid]: the generator never
    produces such programs, but the shrinker can, and must not count them
    as reproducing a failure. *)

module Pipelines = Dcir_core.Pipelines
module Diag = Dcir_support.Diagnostics
module Budget = Dcir_resilience.Budget

type failure_kind =
  | Crash of string  (** exception out of compile or run *)
  | Divergence of string  (** outputs disagree with the reference *)

type failure = {
  f_pipeline : string;  (** pipeline name, or ["reference"] *)
  f_kind : failure_kind;
  f_invalid : bool;
      (** the crash was the frontend rejecting the program — an invalid
          input, not a pipeline bug *)
}

let failure_str (f : failure) : string =
  match f.f_kind with
  | Crash msg -> Printf.sprintf "%s: crash: %s" f.f_pipeline msg
  | Divergence msg -> Printf.sprintf "%s: divergence: %s" f.f_pipeline msg

let describe_exn (e : exn) : string =
  match e with
  | Diag.Error d -> Diag.to_string d
  | Failure msg -> "failure: " ^ Diag.one_line msg
  | e -> Printexc.to_string e

(* ------------------------------------------------------------------ *)
(* Trap parity.

   Traps are defined behaviour in this machine: an integer division or
   remainder by zero stops execution, in every dialect — the mini-MLIR
   interpreter and the SDFG tasklet evaluator raise [Trap], the symbolic
   expression evaluator (interstate conditions, memlet subsets) raises
   [Invalid_argument]. When the unoptimized reference traps, a pipeline
   agrees with it by trapping with the same kind; it fails the oracle by
   running to completion (an optimization deleted or bypassed the trap) or
   by trapping with a different kind. Which partial outputs were written
   before the trap is deliberately not part of the contract: passes may
   legally reorder independent work around a trapping op. Division and
   remainder share one kind, since CSE/LCM may legally change which of two
   same-divisor ops fires first. *)

type trap_kind = Div_by_zero

let trap_kind_name = function Div_by_zero -> "division/remainder by zero"

let contains_substring (msg : string) (sub : string) : bool =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

let trap_kind_of_exn (e : exn) : trap_kind option =
  let classify msg =
    if
      contains_substring msg "division by zero"
      || contains_substring msg "remainder by zero"
      || contains_substring msg "modulo by zero"
    then Some Div_by_zero
    else None
  in
  match e with
  | Dcir_mlir.Interp.Trap msg | Dcir_sdfg.Interp.Trap msg
  | Invalid_argument msg ->
      classify msg
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Output comparison *)

(** {!Dcir_core.Pipelines.divergence}: the agreement rule that
    [compare_pipelines] and the cost golden apply too. *)
let divergence = Pipelines.divergence

(* ------------------------------------------------------------------ *)

let crash_failure (pipeline : string) (e : exn) : failure =
  { f_pipeline = pipeline; f_kind = Crash (describe_exn e);
    f_invalid =
      (match e with Diag.Error { phase = Diag.Frontend; _ } -> true | _ -> false) }

(* ------------------------------------------------------------------ *)
(* Sixth pipeline: dcir with loop→map auto-parallelization. Checked two
   ways — the converted program must still agree with the reference (within
   rtol, like any pipeline), and its parallel execution must be
   BIT-IDENTICAL to its own serial execution: same output bits, same trap
   behaviour, same value of every machine metric
   ({!Dcir_core.Pipelines.bitwise_divergence}). *)

let autopar_failures ~(checked : bool) ?reproducer_dir ~(jobs : int)
    (case : Gen.case) (ref_r : Pipelines.run_result) : failure list =
  match
    try
      let compiled =
        Pipelines.compile ~checked ?reproducer_dir ~autopar:true
          Pipelines.Dcir ~src:case.src ~entry:case.entry
      in
      let serial = Pipelines.run compiled ~entry:case.entry (case.args ()) in
      let par =
        Pipelines.run ~jobs compiled ~entry:case.entry (case.args ())
      in
      Ok (serial, par)
    with e -> Error e
  with
  | Error e -> [ crash_failure "dcir-autopar" e ]
  | Ok (serial, par) ->
      (match divergence ref_r serial with
      | Some msg ->
          [ { f_pipeline = "dcir-autopar"; f_kind = Divergence msg;
              f_invalid = false } ]
      | None -> [])
      @ (match
           Pipelines.bitwise_divergence ~what:"serial and parallel runs" serial
             par
         with
        | Some msg ->
            [ { f_pipeline = "dcir-autopar-par"; f_kind = Divergence msg;
                f_invalid = false } ]
        | None -> [])

(* ------------------------------------------------------------------ *)
(* Seventh pipeline: the two SDFG execution tiers on one dcir artifact.
   The bytecode VM (what [`Compiled] runs) must be BIT-IDENTICAL to the
   tree walker: same output bits, same return value, same trap kind, same
   value of every machine metric. The tiers only differ in host-side
   dispatch, so any divergence at all is a lowering or VM bug. Agreement
   with the reference is the dcir pipeline's own check. *)

let bytecode_vs_tree ~(checked : bool) ?reproducer_dir (case : Gen.case) :
    failure option =
  let diverge msg =
    Some
      { f_pipeline = "dcir-bytecode-vs-tree"; f_kind = Divergence msg;
        f_invalid = false }
  in
  match
    Pipelines.compile ~checked ?reproducer_dir Pipelines.Dcir ~src:case.src
      ~entry:case.entry
  with
  | exception e -> Some (crash_failure "dcir-bytecode" e)
  | compiled -> (
      let run mode =
        try Ok (Pipelines.run ~interp_mode:mode compiled ~entry:case.entry
                  (case.args ()))
        with e -> Error e
      in
      match (run `Tree, run `Compiled) with
      | Ok tree, Ok byte ->
          Option.bind
            (Pipelines.bitwise_divergence ~what:"tree and bytecode tiers" tree
               byte)
            diverge
      | Error et, Error eb
        when Option.is_some (trap_kind_of_exn et)
             && trap_kind_of_exn et = trap_kind_of_exn eb ->
          None
      | Error _, Error e -> Some (crash_failure "dcir-bytecode" e)
      | Ok _, Error e ->
          diverge ("bytecode raised, tree walker finished: " ^ describe_exn e)
      | Error e, Ok _ ->
          diverge ("tree walker raised, bytecode finished: " ^ describe_exn e))

(** Run [case] through the reference and all five pipelines; the empty
    list means every pipeline agreed with the unoptimized reference.
    [~checked] forwards to {!Pipelines.compile} (snapshot / re-verify /
    rollback around every optimization pass). [~parallel] adds the sixth,
    auto-parallelizing pipeline, whose [~jobs]-domain execution must match
    its serial execution bit-for-bit. The seventh pipeline — the bytecode
    tier against the tree walker on the dcir artifact — always runs, and
    the two must agree bit-for-bit (outputs, traps, every machine
    metric).
    [~limits] caps every compile (fuel) and run (steps, allocations) with
    a fresh budget; an exhausted budget surfaces as a crash failure naming
    the exceeded ceiling. *)
let check ?(checked = false) ?(parallel = false) ?(jobs = 3)
    ?(limits = Budget.default) ?reproducer_dir (case : Gen.case) :
    failure list =
  let fresh_budget () = Budget.create ~limits () in
  let reference =
    try
      let m = Dcir_cfront.Polygeist.compile case.src in
      Ok
        (Pipelines.run ~budget:(fresh_budget ()) (Pipelines.CMlir m)
           ~entry:case.entry (case.args ()))
    with e -> Error e
  in
  match reference with
  | Error e -> (
      match trap_kind_of_exn e with
      | None -> [ crash_failure "reference" e ]
      | Some k ->
          (* Trap-parity mode: the reference trapped, so every pipeline
             must trap with the same kind. The serial-vs-parallel
             bit-comparison of the autopar pipeline is skipped here — the
             partial outputs at a trap depend on domain scheduling — but
             the trap itself must still fire. *)
          let must_trap name run =
            match (try Ok (run ()) with e -> Error e) with
            | Ok (_ : Pipelines.run_result) ->
                Some
                  { f_pipeline = name;
                    f_kind =
                      Divergence
                        (Printf.sprintf
                           "ran to completion, reference trapped (%s)"
                           (trap_kind_name k));
                    f_invalid = false }
            | Error e' when trap_kind_of_exn e' = Some k -> None
            | Error e' -> Some (crash_failure name e')
          in
          List.filter_map
            (fun kind ->
              must_trap (Pipelines.kind_name kind) (fun () ->
                  let compiled =
                    Pipelines.compile ~checked ~budget:(fresh_budget ())
                      ?reproducer_dir kind ~src:case.src ~entry:case.entry
                  in
                  Pipelines.run ~budget:(fresh_budget ()) compiled
                    ~entry:case.entry (case.args ())))
            Pipelines.all_kinds
          @ Option.to_list (bytecode_vs_tree ~checked ?reproducer_dir case)
          @
          if parallel then
            Option.to_list
              (must_trap "dcir-autopar" (fun () ->
                   let compiled =
                     Pipelines.compile ~checked ?reproducer_dir ~autopar:true
                       Pipelines.Dcir ~src:case.src ~entry:case.entry
                   in
                   Pipelines.run compiled ~entry:case.entry (case.args ())))
          else [])
  | Ok ref_r ->
      List.filter_map
        (fun kind ->
          let name = Pipelines.kind_name kind in
          match
            try
              let compiled =
                Pipelines.compile ~checked ~budget:(fresh_budget ())
                  ?reproducer_dir kind ~src:case.src ~entry:case.entry
              in
              Ok
                (Pipelines.run ~budget:(fresh_budget ()) compiled
                   ~entry:case.entry (case.args ()))
            with e -> Error e
          with
          | Error e -> Some (crash_failure name e)
          | Ok r -> (
              match divergence ref_r r with
              | Some msg ->
                  Some
                    { f_pipeline = name; f_kind = Divergence msg;
                      f_invalid = false }
              | None -> None))
        Pipelines.all_kinds
      @ Option.to_list (bytecode_vs_tree ~checked ?reproducer_dir case)
      @
      if parallel then
        autopar_failures ~checked ?reproducer_dir ~jobs case ref_r
      else []
