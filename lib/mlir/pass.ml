(** Pass management: named module transforms with logging and fixpoint
    drivers, the homogenized pass infrastructure role MLIR plays in the
    paper's pipeline.

    Every pass execution is instrumented through {!Dcir_obs.Obs}: when
    collection is enabled, each pass records a span with its wall time,
    whether it changed the IR, and the module op-count delta; each fixpoint
    round gets its own nesting span (the [-mlir-timing] role). Fixpoint
    drivers also report structured statistics — per-pass change counts and
    the number of rounds — through {!pipeline_stats}.

    {b Checked execution} ([~checked:true]): before each pass the module is
    snapshotted ({!Ir.clone_module}); after it, {!Verifier.verify_module}
    re-checks the IR. If the pass raised or left the IR invalid, the module
    is rolled back to the snapshot, the incident is recorded (a
    [pass-rollback] journal note, which the event stream carries as
    [PASS-ROLLBACK], a [rollback] span and a
    {!Dcir_support.Diagnostics.incident} in the stats), a crash-reproducer
    file (pre-pass IR + the single-pass pipeline that triggers the fault,
    MLIR-style) is written, and the pass's circuit breaker trips: it stays
    open for a cooldown of fixpoint rounds, is then probationally
    re-admitted, and re-closes only after clean applications
    ({!Dcir_resilience.Breaker}) — degraded output beats a crash. *)

module Obs = Dcir_obs.Obs
module Json = Dcir_obs.Json
module Diag = Dcir_support.Diagnostics
module Budget = Dcir_resilience.Budget
module Breaker = Dcir_resilience.Breaker
module Events = Dcir_obs.Events
module Chaos = Dcir_resilience.Chaos
module Journal = Dcir_resilience.Journal

let log_src = Logs.Src.create "dcir.mlir.pass" ~doc:"MLIR pass manager"

module Log = (val Logs.src_log log_src : Logs.LOG)

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

(* Run one pass, recording a telemetry span (wall time, changed flag,
   op-count delta) when collection is enabled. Consults the ambient chaos
   plan: a crash site raises {!Chaos.Injected} in place of the pass; a
   corrupt site runs the pass and then invalidates its output. *)
let run_one (p : t) (m : Ir.modul) : bool =
  let inject = Chaos.tick_pass () in
  (match inject with
  | `Crash ->
      Journal.note ~kind:"chaos-injected"
        [ ("fault", Json.Str "pass-crash"); ("pass", Json.Str p.pname) ];
      raise (Chaos.Injected (Chaos.Pass_crash, p.pname))
  | `Ok | `Corrupt -> ());
  let c =
    if not (Obs.enabled ()) then p.run m
    else
      Obs.with_span ~cat:"mlir-pass" p.pname (fun () ->
          let before = count_ops m in
          let c = p.run m in
          Obs.set_args
            [
              ("changed", Json.Bool c);
              ("ops_before", Json.Int before);
              ("ops_after", Json.Int (count_ops m));
            ];
          c)
  in
  (match inject with
  | `Corrupt ->
      corrupt_module m;
      Journal.note ~kind:"chaos-injected"
        [ ("fault", Json.Str "corrupt-rewrite"); ("pass", Json.Str p.pname) ]
  | `Ok | `Crash -> ());
  Log.debug (fun f ->
      f "pass %s: %s" p.pname (if c then "changed" else "no change"));
  c

(** Run passes in order; returns whether any changed the IR. *)
let run_pipeline (passes : t list) (m : Ir.modul) : bool =
  List.fold_left (fun changed p -> run_one p m || changed) false passes

(* ------------------------------------------------------------------ *)
(* Checked execution *)

let sanitize_name (s : string) : string =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '-')
    s

(* Crash reproducer, MLIR-style: the pre-pass IR plus the (single-pass)
   pipeline that triggers the fault. Returns the path, or [None] when the
   directory is not writable — reproducers are best-effort and must never
   turn a recovered failure back into a crash. *)
let write_reproducer ?(ext = ".mlir") ~(dir : string) ~(prefix : string)
    ~(pass_name : string) ~(reason : string) (ir_text : string) :
    string option =
  try
    let path =
      Filename.temp_file ~temp_dir:dir
        (Printf.sprintf "%s-%s-" prefix (sanitize_name pass_name))
        ext
    in
    let oc = open_out path in
    Printf.fprintf oc "// dcir crash reproducer\n// failed pass: %s\n" pass_name;
    List.iter
      (fun line -> Printf.fprintf oc "// reason: %s\n" line)
      (String.split_on_char '\n' reason);
    Printf.fprintf oc "// configuration: pass-pipeline='%s'\n%s" pass_name
      ir_text;
    close_out oc;
    Some path
  with Sys_error _ -> None

let record_rollback ~(pass_name : string) ~(reason : string)
    (reproducer : string option) : unit =
  if Obs.enabled () then
    Obs.with_span ~cat:"rollback" ("rollback:" ^ pass_name) (fun () ->
        Obs.set_args
          ([ ("reason", Json.Str reason) ]
          @
          match reproducer with
          | Some p -> [ ("reproducer", Json.Str p) ]
          | None -> []))

(* Run one pass under checked execution: snapshot, run, re-verify. On a
   crash or a verification failure, roll back and report the incident. *)
let run_one_checked ~(round : int) ~(reproducer_dir : string) (p : t)
    (m : Ir.modul) : bool * Diag.incident option =
  let snapshot = Ir.clone_module m in
  let outcome =
    match run_one p m with
    | changed -> (
        match
          List.filter
            (fun (d : Verifier.diagnostic) -> d.severity = `Error)
            (Verifier.verify_module m)
        with
        | [] -> Ok changed
        | errs ->
            (* The stable summary avoids SSA value names (globally
               allocated ids), keeping journals byte-reproducible. *)
            Error
              ( String.concat "\n"
                  (List.map
                     (fun d -> Fmt.str "%a" Verifier.pp_diagnostic d)
                     errs),
                Printf.sprintf "verification failed (%d error%s)"
                  (List.length errs)
                  (if List.length errs = 1 then "" else "s") ))
    | exception exn ->
        let s = "pass raised: " ^ Printexc.to_string exn in
        Error (s, s)
  in
  match outcome with
  | Ok changed -> (changed, None)
  | Error (reason, stable) ->
      Ir.restore_module ~into:m snapshot;
      Journal.note ~kind:"pass-rollback"
        [
          ("domain", Json.Str "control");
          ("pass", Json.Str p.pname);
          ("round", Json.Int round);
          ("reason", Json.Str stable);
        ];
      let reproducer =
        write_reproducer ~dir:reproducer_dir ~prefix:"dcir-repro"
          ~pass_name:p.pname ~reason
          (Printer.module_to_string m)
      in
      record_rollback ~pass_name:p.pname ~reason reproducer;
      Log.err (fun f ->
          f "pass %s failed verification and was rolled back: %s" p.pname
            reason);
      (false, Some { Diag.in_pass = p.pname; in_round = round; reason; reproducer })

type pipeline_stats = {
  rounds : int;  (** fixpoint iterations executed, including the final
                     no-progress round that confirms convergence *)
  applications : (string * int) list;
      (** pass name -> number of runs that changed the IR, pipeline order *)
  incidents : Diag.incident list;
      (** checked-mode rollbacks, chronological ([[]] when unchecked or
          when every pass behaved) *)
}

(** Like {!run_to_fixpoint}, additionally reporting per-pass change counts
    and the round count. With [~checked:true], every pass runs under
    snapshot/verify/rollback (see the module doc); a pass that fails trips
    its circuit [breaker] — open for a cooldown, then probationally
    re-admitted — and is reported in [stats.incidents]. [budget] charges
    one unit of optimization fuel per pass application; [breaker] defaults
    to a fresh (session-scoped) instance but callers may share one across
    fixpoint runs. [reproducer_dir] is where crash reproducers are written
    (default: the system temp directory). *)
let run_to_fixpoint_stats ?(max_iters = 20) ?(checked = false)
    ?(budget : Budget.t option) ?(breaker : Breaker.t option)
    ?(reproducer_dir = Filename.get_temp_dir_name ()) (passes : t list)
    (m : Ir.modul) : bool * pipeline_stats =
  let breaker = match breaker with Some b -> b | None -> Breaker.create () in
  let apps = Hashtbl.create (List.length passes) in
  let bump name =
    Hashtbl.replace apps name (1 + Option.value ~default:0 (Hashtbl.find_opt apps name))
  in
  let incidents = ref [] in
  let changed_once = ref false in
  let continue_ = ref true in
  let iters = ref 0 in
  while !continue_ && !iters < max_iters do
    incr iters;
    let c =
      Obs.with_span ~cat:"mlir-fixpoint"
        (Printf.sprintf "round %d" !iters)
        (fun () ->
          List.fold_left
            (fun changed p ->
              if not (Breaker.admits breaker p.pname) then begin
                if Events.active () then
                  Events.emit ~code:"PASS-SKIP"
                    [
                      ("domain", Json.Str "control");
                      ("pass", Json.Str p.pname);
                      ("round", Json.Int !iters);
                      ("breaker", Json.Str (Breaker.state_name breaker p.pname));
                      ( "failures",
                        Json.Int (Breaker.failure_count breaker p.pname) );
                    ];
                changed
              end
              else begin
                Option.iter Budget.burn_fuel budget;
                let c =
                  if not checked then run_one p m
                  else begin
                    let c, incident =
                      run_one_checked ~round:!iters ~reproducer_dir p m
                    in
                    (match incident with
                    | Some i ->
                        incidents := i :: !incidents;
                        Breaker.record_failure breaker p.pname
                    | None -> Breaker.record_success breaker p.pname);
                    c
                  end
                in
                if Events.active () then
                  Events.emit ~code:"PASS-ADMIT"
                    [
                      ("domain", Json.Str "control");
                      ("pass", Json.Str p.pname);
                      ("round", Json.Int !iters);
                      ("changed", Json.Bool c);
                    ];
                if c then bump p.pname;
                changed || c
              end)
            false passes)
    in
    Breaker.end_round breaker;
    Log.debug (fun f ->
        f "fixpoint round %d: %s" !iters (if c then "progress" else "stable"));
    changed_once := !changed_once || c;
    continue_ := c
  done;
  ( !changed_once,
    {
      rounds = !iters;
      applications =
        List.map
          (fun p ->
            (p.pname, Option.value ~default:0 (Hashtbl.find_opt apps p.pname)))
          passes;
      incidents = List.rev !incidents;
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
