(** Pass management: named module transforms with logging and fixpoint
    drivers, the homogenized pass infrastructure role MLIR plays in the
    paper's pipeline.

    Every pass execution is instrumented through {!Dcir_obs.Obs}: when
    collection is enabled, each pass records a span with its wall time,
    whether it changed the IR, and the module op-count delta; each fixpoint
    round gets its own nesting span (the [-mlir-timing] role). Fixpoint
    drivers also report structured statistics — per-pass change counts and
    the number of rounds — through {!pipeline_stats}.

    The fixpoint is an instance of {!Dcir_resilience.Fixpoint}, which
    describes checked execution ([~checked:true]). Here the snapshot is
    {!Ir.clone_module}, and any {!Verifier.verify_module} error after a
    pass rolls it back. *)

module Diag = Dcir_support.Diagnostics
module Fixpoint = Dcir_resilience.Fixpoint

let log_src = Logs.Src.create "dcir.mlir.pass" ~doc:"MLIR pass manager"

type t = {
  pname : string;
  run : Ir.modul -> bool;  (** returns whether the IR changed *)
}

let make (pname : string) (run : Ir.modul -> bool) : t = { pname; run }

let count_ops (m : Ir.modul) : int =
  let n = ref 0 in
  Ir.walk_module m (fun _ -> incr n);
  !n

(* Chaos corruption: prepend an op whose operand is a fresh value no op
   ever defines — a use-before-def the verifier's dominance check is
   guaranteed to reject. This is the "rewrite that produces invalid IR"
   fault: checked execution must roll it back, unchecked pipelines must
   catch it at the next verification phase. *)
let corrupt_module (m : Ir.modul) : unit =
  match
    List.find_opt (fun (f : Ir.func) -> f.Ir.fbody <> None) m.Ir.funcs
  with
  | Some { fbody = Some r; _ } ->
      let ghost = Ir.new_value ~hint:"chaos" Types.I64 in
      let res = Ir.new_value ~hint:"chaos" Types.I64 in
      let bogus =
        Ir.new_op ~operands:[ ghost; ghost ] ~results:[ res ] "arith.addi"
      in
      r.rops <- bogus :: r.rops
  | _ -> ()

module Engine = Fixpoint.Make (struct
  type ir = Ir.modul
  type pass = t
  type snapshot = Ir.modul

  let name p = p.pname
  let apply p m = p.run m
  let domain = "control"
  let pass_cat = "mlir-pass"
  let round_cat = "mlir-fixpoint"
  let ops = Some count_ops
  let src = log_src
  let corrupt = corrupt_module
  let snapshot = Ir.clone_module
  let restore = Ir.restore_module

  (* The stable summary avoids SSA value names (globally allocated ids),
     keeping journals byte-reproducible. *)
  let check _ m =
    match
      List.filter
        (fun (d : Verifier.diagnostic) -> d.severity = `Error)
        (Verifier.verify_module m)
    with
    | [] -> None
    | errs ->
        let n = List.length errs in
        Some
          ( String.concat "\n"
              (List.map (Fmt.str "%a" Verifier.pp_diagnostic) errs),
            Printf.sprintf "verification failed (%d error%s)" n
              (if n = 1 then "" else "s") )

  let print = Printer.module_to_string
  let repro_prefix = "dcir-repro"
  let repro_ext = ".mlir"
end)

type pipeline_stats = {
  rounds : int;  (** fixpoint iterations executed, including the final
                     no-progress round that confirms convergence *)
  applications : (string * int) list;
      (** pass name -> number of runs that changed the IR and were not
          rolled back, pipeline order *)
  skipped : int;
      (** applications not run because their pass had already run clean
          on the same IR ({!Dcir_resilience.Fixpoint}) *)
  incidents : Diag.incident list;
      (** checked-mode rollbacks, chronological ([[]] when unchecked or
          when every pass behaved) *)
}

(** Like {!run_to_fixpoint}, additionally reporting per-pass change counts
    and the round count. With [~checked:true], every pass runs under
    snapshot/verify/rollback (see the module doc); a pass that fails trips
    its circuit [breaker] — open for a cooldown, then probationally
    re-admitted — and is reported in [stats.incidents]. [budget] charges
    one unit of optimization fuel per admitted pass application; [breaker]
    defaults to a fresh (session-scoped) instance but callers may share one
    across fixpoint runs. [reproducer_dir] is where crash reproducers are
    written (default: the system temp directory). *)
let run_to_fixpoint_stats ?(max_iters = 20) ?(checked = false) ?budget
    ?breaker ?(reproducer_dir = Filename.get_temp_dir_name ()) (passes : t list)
    (m : Ir.modul) : bool * pipeline_stats =
  let run = Fixpoint.create ?breaker () in
  let changed =
    Engine.fixpoint ~max_rounds:max_iters ?budget ~checked ~reproducer_dir run
      passes m
  in
  ( changed,
    {
      rounds = run.total_rounds;
      applications =
        List.map (fun p -> (p.pname, Fixpoint.applications run p.pname)) passes;
      skipped = run.skipped;
      incidents = List.rev run.incidents;
    } )

(** Repeat the pipeline until no pass reports a change (bounded to avoid
    divergence from a buggy pass). *)
let run_to_fixpoint ?(max_iters = 20) ?(checked = false) ?reproducer_dir
    (passes : t list) (m : Ir.modul) : bool =
  fst (run_to_fixpoint_stats ~max_iters ~checked ?reproducer_dir passes m)

(** Lift a per-function transform to a module pass. *)
let per_function (pname : string) (run_fn : Ir.func -> bool) : t =
  make pname (fun m ->
      List.fold_left (fun acc f -> run_fn f || acc) false m.funcs)
