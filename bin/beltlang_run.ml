(* beltlang: run a Beltlang program (from a file or the bundled suite)
   on a simulated heap under any Beltway collector configuration. *)

let syntax_error e =
  Printf.eprintf "syntax error: %s\n" e;
  2

let parse source =
  try Beltlang.Sexp.parse_string source
  with Beltlang.Sexp.Parse_error e -> exit (syntax_error e)

let lint source =
  let diags = Beltlang.Analysis.analyze (parse source) in
  List.iter (fun d -> Format.printf "%a@." Beltlang.Analysis.pp_diag d) diags;
  let errors = Beltlang.Analysis.errors diags in
  Format.printf "lint: %d error(s), %d warning(s)@." errors
    (Beltlang.Analysis.warnings diags);
  exit (if errors > 0 then 1 else 0)

let dump_bytecode source =
  match Beltlang.Compile.compile (Beltlang.Ast.compile (parse source)) with
  | exception Beltlang.Ast.Compile_error e -> exit (syntax_error e)
  | bc ->
    Format.printf "%a@." Beltlang.Bytecode.pp bc;
    exit 0

let run (o : Session.options) source_file builtin list_programs show_stats
    lint_only vm_kind dump =
  let config =
    Session.config o ~list:(fun () ->
        if list_programs then begin
          List.iter
            (fun (p : Beltlang.Programs.t) ->
              Printf.printf "%-12s %s\n" p.name p.description)
            Beltlang.Programs.all;
          exit 0
        end)
  in
  let source =
    match (builtin, source_file) with
    | Some name, _ -> (
      match Beltlang.Programs.by_name name with
      | Some p -> p.Beltlang.Programs.source
      | None -> Session.fail "no bundled program %S (try --list)" name)
    | None, Some file -> (
      try In_channel.with_open_text file In_channel.input_all
      with Sys_error e -> Session.fail "%s" e)
    | None, None -> Session.fail "give a FILE or --program NAME (see --list)"
  in
  if lint_only then lint source;
  if dump then dump_bytecode source;
  let s = Session.start o config in
  let gc = s.Session.gc in
  (* Both engines share heap layout, output format, errors and GC
     behaviour; the bytecode VM is simply faster (see DESIGN.md). *)
  let run_engine, engine_output =
    match vm_kind with
    | `Bytecode ->
      let vm = Beltlang.Vm.create gc in
      ((fun src -> Beltlang.Vm.run_string vm src), fun () -> Beltlang.Vm.output vm)
    | `Ast ->
      let interp = Beltlang.Interp.create gc in
      ( (fun src -> Beltlang.Interp.run_string interp src),
        fun () -> Beltlang.Interp.output interp )
  in
  let status =
    try
      run_engine source;
      0
    with
    | Beltlang.Sexp.Parse_error e | Beltlang.Ast.Compile_error e -> syntax_error e
    | Beltlang.Interp.Runtime_error e ->
      Printf.eprintf "runtime error: %s\n" e;
      1
    | Beltway.Gc.Out_of_memory e ->
      Printf.eprintf "out of memory: %s\n" e;
      3
  in
  (* stdout carries the program's own output; the profile report goes
     to stderr so profiled and unprofiled stdout stay identical *)
  List.iter
    (function
      | Session.Profile (_, p) ->
        Format.eprintf "%a@." (Beltway_obs.Profiler.report ~top:10) p
      | Session.Trace _ | Session.Metrics _ -> ())
    (Session.export s ~name:"beltlang");
  print_string (engine_output ());
  if show_stats then
    (* the summary header names the configuration and its policy *)
    Format.eprintf "[gc] %a@." Beltway.Gc_stats.pp_summary (Beltway.Gc.stats gc);
  (* Integrity reporting only makes sense for completed runs (an OOM
     can abort mid-collection, leaving forwarding pointers behind). *)
  if status = 0 then Session.check s;
  exit status

open Cmdliner

let file_arg =
  let doc = "Beltlang source file." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let builtin_arg =
  let doc = "Run a bundled program instead of a file." in
  Arg.(value & opt (some string) None & info [ "p"; "program" ] ~docv:"NAME" ~doc)

let list_arg =
  let doc = "List bundled programs." in
  Arg.(value & flag & info [ "list" ] ~doc)

let stats_arg =
  let doc = "Print collector statistics to stderr." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let lint_arg =
  let doc =
    "Static analysis only (no execution): scope and arity errors, \
     unreachable-code and unused-binding warnings, allocation-site \
     pretenuring notes. Exit 1 if any error is found."
  in
  Arg.(value & flag & info [ "lint" ] ~doc)

let vm_arg =
  let doc =
    "Execution engine: $(b,bytecode) (flat-array compiler and tight dispatch \
     loop, the default) or $(b,ast) (the tree-walking reference interpreter). \
     Both produce identical output and identical GC statistics."
  in
  Arg.(
    value
    & opt (enum [ ("bytecode", `Bytecode); ("ast", `Ast) ]) `Bytecode
    & info [ "vm" ] ~docv:"ENGINE" ~doc)

let dump_arg =
  let doc = "Compile to bytecode, print the disassembly and exit." in
  Arg.(value & flag & info [ "dump-bytecode" ] ~doc)

let cmd =
  let doc = "run a Beltlang program on a Beltway-collected heap" in
  Cmd.v
    (Cmd.info "beltlang" ~doc)
    Term.(
      const run $ Session.options ~heap_kb:512 $ file_arg $ builtin_arg $ list_arg
      $ stats_arg $ lint_arg $ vm_arg $ dump_arg)

let () = Cmd.eval cmd |> exit
