(* The bytecode VM's conformance gate: the AST interpreter is the
   differential oracle. For every bundled program across a grid of
   collector configurations — and for randomly generated well-scoped
   programs — the VM must produce byte-identical output AND
   byte-identical GC statistics (allocation counts, barrier breakdown,
   collection log). Output equality alone would not catch a fused
   opcode that perturbs the shadow stack at an allocation point; the
   stats equality pins the two engines to the same heap history. *)

module Sexp = Beltlang.Sexp
module Ast = Beltlang.Ast
module Interp = Beltlang.Interp
module Vm = Beltlang.Vm
module Compile = Beltlang.Compile
module Bytecode = Beltlang.Bytecode
module Analysis = Beltlang.Analysis
module Programs = Beltlang.Programs
module Gc = Beltway.Gc
module Gc_stats = Beltway.Gc_stats
module Config = Beltway.Config
module Sanitizer = Beltway_check.Sanitizer

let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let gc_of ?(heap_kb = 512) config_str =
  let config = Result.get_ok (Config.parse config_str) in
  Gc.create ~config ~heap_bytes:(heap_kb * 1024) ()

(* One engine run: output, rendered stats, and the error message if
   the program failed. Runtime errors are legitimate program outcomes
   and must also match between engines, message for message. *)
type outcome = { out : string; stats : string; error : string option }

let stats_of gc =
  let st = Gc.stats gc in
  Format.asprintf "%a|gcs=%d copied=%d freed=%d" Gc_stats.pp_summary st
    (Gc_stats.gcs st)
    (Gc_stats.total_copied_words st)
    (Gc_stats.total_freed_frames st)

let run_interp ?heap_kb ?(sanitize = false) config src =
  let gc = gc_of ?heap_kb config in
  let san =
    if sanitize then Some (Sanitizer.attach ~level:Sanitizer.Paranoid gc) else None
  in
  let it = Interp.create gc in
  let error =
    try
      Interp.run_string it src;
      None
    with
    | Interp.Runtime_error m -> Some m
    | Beltway.State.Out_of_memory m -> Some ("oom: " ^ m)
  in
  Option.iter Sanitizer.check_now san;
  { out = Interp.output it; stats = stats_of gc; error }

let run_vm ?heap_kb ?(sanitize = false) config src =
  let gc = gc_of ?heap_kb config in
  let san =
    if sanitize then Some (Sanitizer.attach ~level:Sanitizer.Paranoid gc) else None
  in
  let vm = Vm.create gc in
  let error =
    try
      Vm.run_string vm src;
      None
    with
    | Vm.Runtime_error m -> Some m
    | Beltway.State.Out_of_memory m -> Some ("oom: " ^ m)
  in
  Option.iter Sanitizer.check_now san;
  { out = Vm.output vm; stats = stats_of gc; error }

let check_equal ~label a b =
  checks (label ^ ": output") a.out b.out;
  checks (label ^ ": gc stats") a.stats b.stats;
  checks (label ^ ": error")
    (Option.value ~default:"<none>" a.error)
    (Option.value ~default:"<none>" b.error)

(* ---- bundled programs x configuration grid ---- *)

let config_grid =
  [ "ss"; "appel"; "fixed:25"; "ofm:25"; "of:25"; "25.25"; "25.25.100";
    "10.10.100"; "25.25.100+nofilter"; "25.25+cards" ]

let test_programs_differential () =
  List.iter
    (fun (p : Programs.t) ->
      List.iter
        (fun config ->
          let label = Printf.sprintf "%s @ %s" p.Programs.name config in
          check_equal ~label
            (run_interp config p.Programs.source)
            (run_vm config p.Programs.source))
        config_grid)
    Programs.all

(* The sanitizer re-checks the heap invariants the fast paths could
   silently break (liveness bitmaps, barrier completeness); level 2 on
   both engines must stay clean and agree. *)
let test_programs_sanitized () =
  List.iter
    (fun (p : Programs.t) ->
      List.iter
        (fun config ->
          let label = Printf.sprintf "%s @ %s +sanitize" p.Programs.name config in
          check_equal ~label
            (run_interp ~sanitize:true config p.Programs.source)
            (run_vm ~sanitize:true config p.Programs.source))
        [ "25.25.100"; "appel" ])
    Programs.all

(* ---- random well-scoped programs (property) ---- *)

(* Source-level generation keeps programs well-scoped by construction:
   expressions only reference names the generator has already bound,
   and calls only target functions defined strictly earlier, so every
   generated program terminates. Runtime errors (car of an int,
   division by zero) are reachable on purpose — both engines must
   report them identically. *)
let gen_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  let atom vars =
    match vars with
    | [] -> oneof [ map string_of_int (int_range (-50) 50); return "nil"; return "#t" ]
    | _ ->
      oneof
        [ map string_of_int (int_range (-50) 50); oneofl vars; return "nil";
          oneofl vars ]
  in
  (* [expr depth vars funs]: an expression over bound variable names
     [vars] and earlier-defined functions [funs] (name, arity). *)
  let rec expr n vars funs =
    if n <= 0 then atom vars
    else
      let sub = expr (n - 1) vars funs in
      let cases =
        [
          atom vars;
          (let* op = oneofl [ "+"; "-"; "*"; "mod"; "<"; "<="; "="; "eq?" ] in
           let* a = sub and* b = sub in
           return (Printf.sprintf "(%s %s %s)" op a b));
          (let* a = sub and* b = sub in
           return (Printf.sprintf "(cons %s %s)" a b));
          (let* op = oneofl [ "car"; "cdr"; "null?"; "pair?"; "not" ] in
           let* a = sub in
           return (Printf.sprintf "(%s %s)" op a));
          (let* c = sub and* t = sub and* e = sub in
           return (Printf.sprintf "(if %s %s %s)" c t e));
          (let* v = oneofl [ "u"; "v"; "w" ] in
           let* b = sub in
           let* body = expr (n - 1) (v :: vars) funs in
           return (Printf.sprintf "(let ((%s %s)) %s)" v b body));
          (let* a = sub and* b = sub in
           return (Printf.sprintf "(begin %s %s)" a b));
          (let* a = sub and* b = sub in
           let* op = oneofl [ "and"; "or" ] in
           return (Printf.sprintf "(%s %s %s)" op a b));
        ]
        @ (match vars with
          | [] -> []
          | _ ->
            [
              (let* v = oneofl vars in
               let* b = sub in
               return (Printf.sprintf "(begin (set! %s %s) %s)" v b v));
            ])
        @ (match funs with
          | [] -> []
          | _ ->
            [
              (let* fname, arity = oneofl funs in
               let* args =
                 QCheck.Gen.list_repeat arity sub
               in
               return
                 (Printf.sprintf "(%s%s)" fname
                    (String.concat ""
                       (List.map (fun a -> " " ^ a) args))));
            ])
      in
      oneof cases
  in
  (* A program: a few globals, a few non-recursive functions (each may
     call only earlier ones), then printed toplevel expressions. *)
  let* nglobals = int_range 0 3 in
  let globals = List.init nglobals (fun i -> Printf.sprintf "g%d" i) in
  let* global_defs =
    QCheck.Gen.flatten_l
      (List.map
         (fun g ->
           let* v = expr 2 [] [] in
           return (Printf.sprintf "(define %s %s)" g v))
         globals)
  in
  let* nfuns = int_range 0 3 in
  let rec mk_funs i acc_defs funs =
    if i >= nfuns then return (List.rev acc_defs, funs)
    else
      let fname = Printf.sprintf "f%d" i in
      let* arity = int_range 1 3 in
      let params = List.init arity (fun j -> Printf.sprintf "p%d" j) in
      let* body = expr 3 (params @ globals) funs in
      let def =
        Printf.sprintf "(define (%s%s) %s)" fname
          (String.concat "" (List.map (fun p -> " " ^ p) params))
          body
      in
      mk_funs (i + 1) (def :: acc_defs) ((fname, arity) :: funs)
  in
  let* fun_defs, funs = mk_funs 0 [] [] in
  let* ntop = int_range 1 4 in
  let* tops =
    QCheck.Gen.flatten_l
      (List.init ntop (fun _ ->
           let* e = expr 4 [] funs in
           return (Printf.sprintf "(print %s)" e)))
  in
  return (String.concat "\n" (global_defs @ fun_defs @ tops))

let differential_prop =
  QCheck.Test.make ~name:"random programs: vm == interp (output, stats, errors)"
    ~count:300 (QCheck.make ~print:(fun s -> s) gen_program)
    (fun src ->
      (* small heap: random programs must also agree across collections *)
      let a = run_interp ~heap_kb:64 "25.25.100" src in
      let b = run_vm ~heap_kb:64 "25.25.100" src in
      a.out = b.out && a.stats = b.stats && a.error = b.error)

(* ---- fixed regressions ---- *)

(* Programs that once made the engines disagree; each must now match
   the AST interpreter exactly, and print what it states. *)
let regressions =
  [
    (* [compile_bool] absorbed both [not]s into the negate bit, so the
       VM printed 41 where the interpreter printed the boolean. *)
    ("(not (not e)) in value context", "(print (not (not 41)))", "1\n");
    ( "odd and even not chains",
      "(print (not (not (not 41)))) (print (not (not (not (not nil))))) \
       (print (not (not (< 1 2))))",
      "0\n0\n1\n" );
  ]

let test_regressions () =
  List.iter
    (fun (label, src, expected) ->
      let a = run_interp "25.25.100" src in
      check_equal ~label a (run_vm "25.25.100" src);
      checks (label ^ ": printed") expected a.out)
    regressions

(* Integer literals at the edges of Value's 62-bit immediate range
   print as written. One step beyond, beyond OCaml's own 63 bits, or
   a hex literal int_of_string would wrap negative, and both engines
   refuse the whole program at compile time with one message, whether
   the literal is quoted or not. The linter flags the same literals.
   Only this test treats [Compile_error] as an outcome: the shared run
   helpers let it escape, so a program that stops compiling fails. *)
let test_literal_range () =
  List.iter
    (fun lit ->
      let src = Printf.sprintf "(print %s) (print (car '(%s)))" lit lit in
      let a = run_interp "25.25.100" src in
      check_equal ~label:lit a (run_vm "25.25.100" src);
      checks (lit ^ ": printed") (lit ^ "\n" ^ lit ^ "\n") a.out)
    [ "2305843009213693951"; "-2305843009213693952" ];
  List.iter
    (fun lit ->
      List.iter
        (fun form ->
          let src = "(print 1) (print " ^ form ^ ")" in
          let refused run =
            match run "25.25.100" src with
            | exception Ast.Compile_error m -> m
            | o -> Option.value ~default:"<none>" o.error
          in
          let a = refused run_interp in
          checks (src ^ ": vm == interp") a (refused run_vm);
          checks (src ^ ": error") ("integer literal out of range: " ^ lit) a;
          checki (src ^ ": lint errors") 1
            (Analysis.errors (Analysis.analyze (Sexp.parse_string src))))
        [ lit; "'" ^ lit; "'(1 " ^ lit ^ ")" ])
    [ "2305843009213693952"; "-2305843009213693953"; "4611686018427387903";
      "-4611686018427387904"; "4611686018427387904"; "99999999999999999999";
      "0x7FFFFFFFFFFFFFFF" ]

(* ---- compiled form ---- *)

let test_compile_shapes () =
  (* Superinstruction selection is an implementation detail, but the
     flat encoding must stay self-consistent: walking the code stream
     by [insn_len] lands exactly on [halt]/[return] boundaries. *)
  let emitted = Array.make Bytecode.op_count false in
  List.iter
    (fun (p : Programs.t) ->
      let bc = Compile.compile (Ast.compile (Sexp.parse_string p.Programs.source)) in
      let n = Array.length bc.Bytecode.code in
      let pc = ref 0 in
      let ok = ref true in
      while !pc < n do
        let insn = bc.Bytecode.code.(!pc) in
        let op = Bytecode.op insn in
        if op < 0 || op >= Bytecode.op_count then ok := false
        else emitted.(op) <- true;
        pc := !pc + Bytecode.insn_len insn
      done;
      checkb (p.Programs.name ^ ": insn_len walk is exact") true (!pc = n && !ok))
    Programs.all;
  (* A fused opcode earns its place by saving dispatches on the bundled
     programs (DESIGN.md §3e); one that no program emits saves none. *)
  for op = Bytecode.op_jcmp_false to Bytecode.op_count - 1 do
    checkb
      (Bytecode.op_name op ^ ": emitted by some bundled program")
      true emitted.(op)
  done

let test_dump_is_stable () =
  (* the disassembler must cover every emitted opcode *)
  let bc =
    Compile.compile
      (Ast.compile
         (Sexp.parse_string
            "(define i 0) (define (f x) (if (< x 1) x (f (- x 1)))) \
             (while (< i 3) (print (f i)) (set! i (+ i 1)))"))
  in
  let dump = Format.asprintf "%a" Bytecode.pp bc in
  checkb "dump mentions code section" true
    (String.length dump > 0 && String.index_opt dump '\n' <> None)

let test_dump_every_program () =
  (* jcmp-false carries the compiler's negate bit in its C operand;
     every bundled program must disassemble without raising *)
  List.iter
    (fun (p : Programs.t) ->
      let bc =
        Compile.compile (Ast.compile (Sexp.parse_string p.Programs.source))
      in
      let buf = Buffer.create 4096 in
      let fmt = Format.formatter_of_buffer buf in
      Format.fprintf fmt "%a@?" Bytecode.pp bc;
      checkb (p.Programs.name ^ ": disassembles") true (Buffer.length buf > 0))
    Programs.all

(* ---- operand limits ---- *)

let deep_lambda_nest n =
  let rec go i acc = if i = 0 then acc else go (i - 1) ("(lambda () " ^ acc ^ ")") in
  "(define f (lambda (a) " ^ go n "a" ^ "))"

let test_limit_hops () =
  let src = deep_lambda_nest (Bytecode.max_c + 10) in
  checkb "hop overflow raises Compile_error" true
    (try
       ignore (Compile.compile (Ast.compile (Sexp.parse_string src)));
       false
     with Ast.Compile_error m ->
       (* the message must name the limit *)
       String.length m > 0 && String.sub m 0 14 = "bytecode limit");
  (* ... and the linter reports it statically, as an error *)
  let diags = Analysis.analyze (Sexp.parse_string src) in
  checki "lint flags bytecode-limit" 1
    (List.length
       (List.filter
          (fun (d : Analysis.diag) ->
            d.Analysis.code = "bytecode-limit" && d.Analysis.severity = Analysis.Error)
          diags))

let test_limit_within () =
  (* a nest just inside the hop budget still compiles and runs *)
  let src = deep_lambda_nest 16 in
  let vm = Vm.create (gc_of "25.25.100") in
  Vm.run_string vm src;
  checks "within limits runs" "" (Vm.output vm)

let suite =
  [
    ("programs x config grid: vm == interp", `Slow, test_programs_differential);
    ("programs under sanitizer: vm == interp", `Slow, test_programs_sanitized);
    ("fixed regressions: vm == interp", `Quick, test_regressions);
    ("integer literal range: vm == interp", `Quick, test_literal_range);
    ("compiled streams walk exactly", `Quick, test_compile_shapes);
    ("disassembly smoke", `Quick, test_dump_is_stable);
    ("disassembly of every bundled program", `Quick, test_dump_every_program);
    ("operand limit: hops overflow", `Quick, test_limit_hops);
    ("operand limit: within budget", `Quick, test_limit_within);
    Prop.to_alcotest differential_prop;
  ]
