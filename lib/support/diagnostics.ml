(** Structured diagnostics for the compilation pipeline.

    Every user-reachable failure carries a stable error code, the pipeline
    phase it arose in, and a human-readable message — so the CLI can render
    a one-line diagnostic and exit cleanly instead of dumping an
    uncaught-exception backtrace, and so tests can assert on codes rather
    than message prose.

    The module also defines the {!incident} record shared by the checked
    pass drivers (MLIR pass manager, DaCe driver): one incident per pass
    execution that was rolled back because it crashed or produced IR that
    fails verification. *)

type phase =
  | Frontend  (** C parse / sema / lowering *)
  | ControlOpt  (** MLIR control-centric pass pipeline *)
  | Verify  (** MLIR verifier *)
  | Convert  (** core-dialect -> sdfg-dialect conversion *)
  | Translate  (** sdfg dialect -> SDFG IR translation *)
  | DataOpt  (** data-centric pass pipeline *)
  | Validate  (** SDFG validation *)
  | Execute  (** simulated-machine execution *)
  | Fuzz  (** fuzz harness *)
  | Cli  (** argument handling / IO in the driver *)

let phase_name = function
  | Frontend -> "frontend"
  | ControlOpt -> "control-opt"
  | Verify -> "verify"
  | Convert -> "convert"
  | Translate -> "translate"
  | DataOpt -> "data-opt"
  | Validate -> "validate"
  | Execute -> "execute"
  | Fuzz -> "fuzz"
  | Cli -> "cli"

type t = { code : string; phase : phase; message : string }

exception Error of t

let make ~(code : string) ~(phase : phase) (message : string) : t =
  { code; phase; message }

(** Raise {!Error} with a formatted message. *)
let fail ~(code : string) ~(phase : phase) fmt =
  Fmt.kstr (fun message -> raise (Error { code; phase; message })) fmt

(* Single-line rendering: multi-line payloads (e.g. several verifier
   diagnostics) are folded onto one line so shell pipelines stay sane. *)
let one_line (s : string) : string =
  String.concat "; " (String.split_on_char '\n' s)

let to_string (d : t) : string =
  Printf.sprintf "[%s] %s: %s" d.code (phase_name d.phase) (one_line d.message)

let pp (ppf : Format.formatter) (d : t) : unit =
  Format.pp_print_string ppf (to_string d)

(* ------------------------------------------------------------------ *)
(* Checked-execution incidents *)

type incident = {
  in_pass : string;  (** name of the pass that was rolled back *)
  in_round : int;  (** fixpoint round (1-based) the failure occurred in *)
  reason : string;  (** verifier/validator diagnostics, or the exception *)
  reproducer : string option;  (** path of the crash-reproducer file, if
                                   one was written *)
}
