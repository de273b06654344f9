(* The reclamation-strategy registry: how a plan's increments are
   reclaimed, orthogonal to [Policy] (what to collect and when). The
   [State.strategy] record is plain data (a name and a kind) and lives
   in [State] beside [State.policy]; this module constructs the
   records, owns the registry and resolves config strings, exactly
   mirroring [Policy], and derives each property of a kind.
   [Collector] interprets the installed record's [strategy_kind] once
   per collection. *)

let copying = State.copying_strategy

let marksweep =
  { State.strategy_name = "marksweep"; strategy_kind = State.Strategy_marksweep }

let markcompact =
  {
    State.strategy_name = "markcompact";
    strategy_kind = State.Strategy_markcompact;
  }

(* ---- properties of a kind ------------------------------------------ *)

(* Mark-compact moves survivors, but strictly within the increment's
   own frames (a slide), so only copying needs destination frames. *)
let moving = function
  | State.Strategy_copying | State.Strategy_markcompact -> true
  | State.Strategy_marksweep -> false

let needs_reserve = function
  | State.Strategy_copying -> true
  | State.Strategy_marksweep | State.Strategy_markcompact -> false

(* Only the Cheney drain is sharded over [gc_domains > 1]. *)
let parallel = function
  | State.Strategy_copying -> true
  | State.Strategy_marksweep | State.Strategy_markcompact -> false

(* ---- registry ------------------------------------------------------ *)

type info = {
  key : string;
  strategy : State.strategy;
  summary : string;
  exemplar_config : string;
}

let infos =
  [
    {
      key = "copying";
      strategy = copying;
      summary =
        "Cheney evacuation into fresh destination increments (the paper's \
         collector; the default — byte-identical to the pre-strategy \
         implementation, parallel drain supported)";
      exemplar_config = "25.25.100";
    };
    {
      key = "marksweep";
      strategy = marksweep;
      summary =
        "bitmap mark + free-list sweep: survivors stay in place (logical \
         promotion restamps their increment), dead runs become reusable \
         holes; zero copy reserve";
      exemplar_config = "25.25.100+strategy:marksweep";
    };
    {
      key = "markcompact";
      strategy = markcompact;
      summary =
        "bitmap mark + threaded (Jonkers) compaction: survivors slide to \
         the front of their own frames, empty tail frames are freed; zero \
         copy reserve";
      exemplar_config = "25.25.100+strategy:markcompact";
    };
  ]

let registry : (string * State.strategy) list =
  List.map (fun i -> (i.key, i.strategy)) infos

let names = List.map (fun i -> i.key) infos

let info_exn key =
  match List.find_opt (fun i -> i.key = key) infos with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Strategy: unknown strategy %S" key)

let describe key = (info_exn key).summary
let exemplar key = (info_exn key).exemplar_config
let name (s : State.strategy) = s.State.strategy_name

(* ---- resolution ---------------------------------------------------- *)

let default_name = "copying"

let resolve (cfg : Config.t) =
  let key =
    match cfg.Config.strategy with Some n -> n | None -> default_name
  in
  match List.assoc_opt key registry with
  | Some s -> Ok s
  | None ->
    Error
      (Printf.sprintf "unknown strategy %S (registered: %s)" key
         (String.concat ", " names))

let resolve_exn cfg =
  match resolve cfg with
  | Ok s -> s
  | Error e -> invalid_arg ("Strategy.resolve: " ^ e)

(* ---- parallel-drain compatibility ---------------------------------- *)

let check_domains (s : State.strategy) ~gc_domains =
  if gc_domains <= 1 || parallel s.State.strategy_kind then Ok ()
  else
    Error
      (Printf.sprintf
         "strategy %s does not support a parallel drain (--gc-domains %d); \
          use --gc-domains 1 or the copying strategy"
         s.State.strategy_name gc_domains)
