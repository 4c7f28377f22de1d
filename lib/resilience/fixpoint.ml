(** The checked fixpoint engine behind both pass drivers: the MLIR pass
    manager ([Dcir_mlir.Pass]) and the data-centric driver
    ([Dcir_dace_passes.Driver]) are instances of {!Make}, and supply only
    what differs by IR (see {!IR}).

    A fixpoint repeats its pass list until a whole round changes nothing,
    or until its round limit. Each application consults the ambient chaos
    plan ({!Chaos.tick_pass}), burns one unit of the budget's optimization
    fuel, and records a span (when collection is enabled) and a
    [PASS-ADMIT] event. A pass whose circuit breaker is open is skipped
    with a [PASS-SKIP] event instead.

    {b Checked execution} ([~checked:true]): before each application the
    IR is snapshotted; after it, the instance's error rule re-checks it.
    If the pass raised or broke that rule, the IR is rolled back to the
    snapshot, the incident is recorded (a [PASS-ROLLBACK] event, a
    [rollback] span and a {!Dcir_support.Diagnostics.incident} in the run
    record), a crash-reproducer file (the pre-pass IR plus the single-pass
    pipeline that triggers the fault, MLIR-style) is written, and the pass's
    circuit breaker trips: it stays open for a cooldown of fixpoint
    rounds, is then probationally re-admitted, and re-closes only after
    clean applications ({!Breaker}). Degraded output beats a crash.

    An application counts as applied only if it changed the IR and was
    not rolled back.

    {b Skipping clean passes.} The run record keeps an IR modification
    generation, bumped by every admitted application that changed the IR
    and was kept, and by a chaos corrupt-rewrite that was kept (it edits
    the IR without the pass reporting a change). For each pass it also
    keeps the generation at which that pass last ran clean: admitted,
    reported no change, and not rolled back. A pass whose clean
    generation is the current one is not applied: it counts as no change
    for the round and in {!run.skipped}, but ticks no chaos site, burns no
    fuel, opens no span and emits no [PASS-ADMIT]. (A pass whose breaker
    is open is still skipped with a [PASS-SKIP] event, before this rule.)
    A rolled-back application records nothing: its IR is back at the
    snapshot, and the breaker answers for the pass. Rounds, applied
    counts and every product are what they would be without the rule,
    under two contracts:
    - {e no change means no edit}: an application that reports no change
      leaves the IR exactly as it found it (the core test "passes that
      report no change leave the IR alone" checks every pass list);
    - {e one IR per run record}: nothing edits the IR between two
      fixpoints that share a run record. [Driver.optimize] shares one
      across its three stages, so each stage's first round skips the
      passes the previous stage just confirmed clean. *)

module Obs = Dcir_obs.Obs
module Json = Dcir_obs.Json
module Events = Dcir_obs.Events
module Diag = Dcir_support.Diagnostics

(** What an IR supplies to the engine. *)
module type IR = sig
  type ir
  type pass
  type snapshot

  val name : pass -> string

  val apply : pass -> ir -> bool
  (** Runs the pass; returns whether it changed the IR. *)

  val domain : string
  (** The [domain] field of the events. *)

  val pass_cat : string
  (** Span category of one application. *)

  val round_cat : string
  (** Span category of one fixpoint round. *)

  val ops : (ir -> int) option
  (** When given, each pass span also records the IR's size before and
      after the pass as [ops_before] and [ops_after]. *)

  val src : Logs.src

  val corrupt : ir -> unit
  (** The chaos corrupt-rewrite fault: leave IR the error rule rejects. *)

  val snapshot : ir -> snapshot
  val restore : into:ir -> snapshot -> unit

  val check : snapshot -> ir -> (string * string) option
  (** The error rule, given the pre-pass snapshot: [None] when the pass
      left the IR acceptable, else [(reason, stable)], the full
      diagnostics and the reason the [PASS-ROLLBACK] event records. *)

  val print : ir -> string
  (** The IR text of a crash reproducer, written to
      [<dir>/<repro_prefix>-<pass>-*<repro_ext>]. *)

  val repro_prefix : string
  val repro_ext : string
end

(** The record of one run, shared by every fixpoint that uses it: one run
    is one breaker lifetime. *)
type run = {
  apps : (string, int) Hashtbl.t;
      (** pass name -> applications that changed the IR and were kept *)
  clean : (string, int) Hashtbl.t;
      (** pass name -> the generation at which it last ran clean *)
  mutable generation : int;  (** bumped by every kept edit of the IR *)
  mutable skipped : int;  (** applications not run: their pass was clean *)
  mutable total_rounds : int;  (** rounds over every fixpoint of the run *)
  mutable incidents : Diag.incident list;  (** reverse chronological *)
  breaker : Breaker.t;
}

let create ?(breaker = Breaker.create ()) () : run =
  {
    apps = Hashtbl.create 16;
    clean = Hashtbl.create 16;
    generation = 0;
    skipped = 0;
    total_rounds = 0;
    incidents = [];
    breaker;
  }

let applications (run : run) (name : string) : int =
  Option.value ~default:0 (Hashtbl.find_opt run.apps name)

module Make (I : IR) = struct
  (* The crash reproducer: the pre-pass IR plus the single-pass pipeline
     that triggers the fault. Returns its path, or [None] when [dir] is
     not writable: reproducers are best-effort and must never turn a
     recovered failure back into a crash. *)
  let write_reproducer ~(dir : string) ~(pass_name : string)
      ~(reason : string) (ir : I.ir) : string option =
    try
      let safe = function
        | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') as c -> c
        | _ -> '-'
      in
      let path =
        Filename.temp_file ~temp_dir:dir
          (Printf.sprintf "%s-%s-" I.repro_prefix (String.map safe pass_name))
          I.repro_ext
      in
      let oc = open_out path in
      Printf.fprintf oc "// dcir crash reproducer\n// failed pass: %s\n"
        pass_name;
      List.iter
        (fun line -> Printf.fprintf oc "// reason: %s\n" line)
        (String.split_on_char '\n' reason);
      Printf.fprintf oc "// configuration: pass-pipeline='%s'\n%s" pass_name
        (I.print ir);
      close_out oc;
      Some path
    with Sys_error _ -> None

  (* One application: a chaos crash site raises {!Chaos.Injected} in
     place of the pass; a corrupt site runs the pass and then breaks its
     output. Returns whether the pass changed the IR, and whether the
     corrupt site did. *)
  let apply (p : I.pass) (ir : I.ir) : bool * bool =
    let name = I.name p in
    let inject = Chaos.tick_pass () in
    (match inject with
    | `Crash ->
        Events.emit ~code:"CHAOS-INJECT"
          [ ("fault", Json.Str "pass-crash"); ("pass", Json.Str name) ];
        raise (Chaos.Injected (Chaos.Pass_crash, name))
    | `Ok | `Corrupt -> ());
    let c =
      if not (Obs.enabled ()) then I.apply p ir
      else
        Obs.with_span ~cat:I.pass_cat name (fun () ->
            let before = match I.ops with Some ops -> ops ir | None -> 0 in
            let c = I.apply p ir in
            Obs.set_args
              (("changed", Json.Bool c)
              ::
              (match I.ops with
              | Some ops ->
                  [ ("ops_before", Json.Int before); ("ops_after", Json.Int (ops ir)) ]
              | None -> []));
            c)
    in
    match inject with
    | `Corrupt ->
        I.corrupt ir;
        Events.emit ~code:"CHAOS-INJECT"
          [ ("fault", Json.Str "corrupt-rewrite"); ("pass", Json.Str name) ];
        (c, true)
    | `Ok | `Crash -> (c, false)

  (* One application under checked execution, as {!apply}; [None] when it
     was rolled back. *)
  let apply_checked (run : run) ~(round : int) ~(reproducer_dir : string)
      (p : I.pass) (ir : I.ir) : (bool * bool) option =
    let name = I.name p in
    let snapshot = I.snapshot ir in
    let outcome =
      match apply p ir with
      | c -> (match I.check snapshot ir with None -> Ok c | Some e -> Error e)
      | exception exn ->
          let s = "pass raised: " ^ Printexc.to_string exn in
          Error (s, s)
    in
    match outcome with
    | Ok c ->
        Breaker.record_success run.breaker name;
        Some c
    | Error (reason, stable) ->
        I.restore ~into:ir snapshot;
        Events.emit ~code:"PASS-ROLLBACK"
          [
            ("domain", Json.Str I.domain);
            ("pass", Json.Str name);
            ("round", Json.Int round);
            ("reason", Json.Str stable);
          ];
        let reproducer =
          write_reproducer ~dir:reproducer_dir ~pass_name:name ~reason ir
        in
        if Obs.enabled () then
          Obs.with_span ~cat:"rollback" ("rollback:" ^ name) (fun () ->
              Obs.set_args
                (("reason", Json.Str reason)
                ::
                (match reproducer with
                | Some path -> [ ("reproducer", Json.Str path) ]
                | None -> [])));
        Logs.err ~src:I.src (fun f ->
            f "pass %s was rolled back: %s" name reason);
        run.incidents <-
          { Diag.in_pass = name; in_round = round; reason; reproducer }
          :: run.incidents;
        Breaker.record_failure run.breaker name;
        None

  let step (run : run) ~(budget : Budget.t option) ~(checked : bool)
      ~(reproducer_dir : string) ~(round : int) (ir : I.ir) (p : I.pass) :
      bool =
    let name = I.name p in
    if not (Breaker.admits run.breaker name) then begin
      if Events.active () then
        Events.emit ~code:"PASS-SKIP"
          [
            ("domain", Json.Str I.domain);
            ("pass", Json.Str name);
            ("round", Json.Int round);
            ("breaker", Json.Str (Breaker.state_name run.breaker name));
            ("failures", Json.Int (Breaker.failure_count run.breaker name));
          ];
      false
    end
    else if Hashtbl.find_opt run.clean name = Some run.generation then begin
      run.skipped <- run.skipped + 1;
      false
    end
    else begin
      Option.iter Budget.burn_fuel budget;
      let outcome =
        if checked then apply_checked run ~round ~reproducer_dir p ir
        else Some (apply p ir)
      in
      let c = match outcome with Some (c, _) -> c | None -> false in
      if Events.active () then
        Events.emit ~code:"PASS-ADMIT"
          [
            ("domain", Json.Str I.domain);
            ("pass", Json.Str name);
            ("round", Json.Int round);
            ("changed", Json.Bool c);
          ];
      (match outcome with
      | Some (false, false) -> Hashtbl.replace run.clean name run.generation
      | Some _ ->
          run.generation <- run.generation + 1;
          if c then begin
            Hashtbl.replace run.apps name (1 + applications run name);
            Logs.debug ~src:I.src (fun f -> f "pass %s: changed" name)
          end
      | None -> ());
      c
    end

  (** Iterate [passes] over [ir] until a round changes nothing, for at
      most [max_rounds] rounds; returns whether any round changed it.
      [budget] is charged one unit of fuel per admitted application. *)
  let fixpoint ~(max_rounds : int) ?(budget : Budget.t option)
      ~(checked : bool) ~(reproducer_dir : string) (run : run)
      (passes : I.pass list) (ir : I.ir) : bool =
    let changed = ref false in
    let progress = ref true in
    let rounds = ref 0 in
    while !progress && !rounds < max_rounds do
      incr rounds;
      run.total_rounds <- run.total_rounds + 1;
      let round = !rounds in
      progress :=
        Obs.with_span ~cat:I.round_cat (Printf.sprintf "round %d" round)
          (fun () ->
            List.fold_left
              (fun any p ->
                step run ~budget ~checked ~reproducer_dir ~round ir p || any)
              false passes);
      Breaker.end_round run.breaker;
      Logs.debug ~src:I.src (fun f ->
          f "fixpoint round %d: %s" round
            (if !progress then "progress" else "stable"));
      if !progress then changed := true
    done;
    !changed
end
