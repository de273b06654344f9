module Vec = Beltway_util.Vec

type severity = Error | Warning | Note
type diag = { severity : severity; code : string; message : string }

type gstate = {
  mutable g_arity : int option; (* known fixed arity, when a function *)
  mutable g_used : bool;
  mutable g_assigned : bool;
}

type ctx = {
  diags : diag Vec.t;
  globals : (string, gstate) Hashtbl.t;
  global_order : string Vec.t;
  mutable scopes : (string * bool ref) list list; (* innermost first *)
  mutable in_def : string option; (* enclosing top-level definition *)
  mutable data_allocs : int;
  mutable closures : int;
  mutable escaping : int;
  mutable stored : int;
}

let add ctx severity code fmt =
  Format.kasprintf
    (fun message -> Vec.push ctx.diags { severity; code; message })
    fmt

let where ctx = match ctx.in_def with None -> "" | Some n -> " in " ^ n

let describe s =
  let str = Format.asprintf "%a" Sexp.pp s in
  if String.length str > 40 then String.sub str 0 37 ^ "..." else str

(* Constant truthiness under the interpreter's rule: null and the
   immediate 0 (which is also #f) are false, everything else true. *)
let literal_bool = function
  | Sexp.Atom "#t" -> Some true
  | Sexp.Atom "#f" | Sexp.Atom "nil" -> Some false
  | Sexp.List [] -> Some false
  | Sexp.Atom a -> (
    match Ast.int_literal a with
    | `Int 0 -> Some false
    | `Int _ -> Some true
    | `Out_of_range | `Symbol -> None)
  | _ -> None

(* Heap-allocating expressions, syntactically. Closures are reported
   separately: every top-level definition makes one, so flagging them
   as pretenuring candidates would be all noise. *)
let data_alloc_kind = function
  | Sexp.List (Sexp.Atom "cons" :: _) -> Some "cons cell"
  | Sexp.List (Sexp.Atom "make-vector" :: _) -> Some "vector"
  | Sexp.List [ Sexp.Atom "quote"; Sexp.List (_ :: _) ] -> Some "quoted list"
  | _ -> None

let push_scope ctx names =
  ctx.scopes <- List.map (fun n -> (n, ref false)) names :: ctx.scopes

(* Leading underscore opts out of unused warnings, the usual idiom. *)
let warnable n = not (String.length n > 0 && n.[0] = '_')

let pop_scope ctx ~code ~what =
  match ctx.scopes with
  | [] -> ()
  | frame :: rest ->
    ctx.scopes <- rest;
    List.iter
      (fun (n, used) ->
        if (not !used) && warnable n then
          add ctx Warning code "%s %s is never used%s" what n (where ctx))
      frame

let lookup_local ctx name ~mark =
  let rec scan = function
    | [] -> false
    | frame :: rest -> (
      match List.assoc_opt name frame with
      | Some used ->
        if mark then used := true;
        true
      | None -> scan rest)
  in
  scan ctx.scopes

let use_var ctx name =
  if not (lookup_local ctx name ~mark:true) then
    match Hashtbl.find_opt ctx.globals name with
    | Some g -> g.g_used <- true
    | None ->
      (* Primitive names are only recognised in call position, exactly
         as in the resolver. *)
      add ctx Error "unbound-var" "unbound variable %s%s" name (where ctx)

(* A name is a primitive here iff no local or global binding shadows
   it — the resolver's rule. *)
let prim_here ctx op =
  List.mem_assoc op Ast.prims
  && (not (lookup_local ctx op ~mark:false))
  && not (Hashtbl.mem ctx.globals op)

let declare ctx name =
  match Hashtbl.find_opt ctx.globals name with
  | Some g -> g
  | None ->
    let g = { g_arity = None; g_used = false; g_assigned = false } in
    Hashtbl.replace ctx.globals name g;
    Vec.push ctx.global_order name;
    g

let pretenure_note ctx ~kind ~sink =
  add ctx Note "pretenure"
    "%s %s likely outlives its creating scope: a candidate for alloc_pretenured (belt >= 1)%s"
    kind sink (where ctx)

(* Whether atom [a] is an integer literal; an out-of-range one is an
   error, as in the resolver. *)
let literal ctx a =
  match Ast.int_literal a with
  | `Int _ -> true
  | `Out_of_range ->
    add ctx Error "int-range" "integer literal out of range: %s%s" a (where ctx);
    true
  | `Symbol -> false

let rec walk ctx (s : Sexp.t) =
  match s with
  | Sexp.Atom ("#t" | "#f" | "nil") | Sexp.List [] -> ()
  | Sexp.Atom a -> if not (literal ctx a) then use_var ctx a
  | Sexp.List (Sexp.Atom "quote" :: rest) -> (
    match rest with
    | [ q ] -> (
      let rec datum = function
        | Sexp.Atom a -> ignore (literal ctx a)
        | Sexp.List items -> List.iter datum items
      in
      datum q;
      match q with
      | Sexp.List (_ :: _) -> ctx.data_allocs <- ctx.data_allocs + 1
      | _ -> ())
    | _ -> add ctx Error "bad-form" "quote expects one form%s" (where ctx))
  | Sexp.List (Sexp.Atom "if" :: rest) -> (
    match rest with
    | [ c; t ] ->
      walk ctx c;
      (match literal_bool c with
      | Some false ->
        add ctx Warning "unreachable"
          "then-branch is unreachable: condition %s is always false%s"
          (describe c) (where ctx)
      | Some true | None -> ());
      walk ctx t
    | [ c; t; e ] ->
      walk ctx c;
      (match literal_bool c with
      | Some true ->
        add ctx Warning "unreachable"
          "else-branch is unreachable: condition %s is always true%s"
          (describe c) (where ctx)
      | Some false ->
        add ctx Warning "unreachable"
          "then-branch is unreachable: condition %s is always false%s"
          (describe c) (where ctx)
      | None -> ());
      walk ctx t;
      walk ctx e
    | _ -> add ctx Error "bad-form" "if expects 2 or 3 forms%s" (where ctx))
  | Sexp.List (Sexp.Atom "begin" :: body) -> List.iter (walk ctx) body
  | Sexp.List (Sexp.Atom "lambda" :: rest) -> walk_lambda ctx ~name:None rest
  | Sexp.List (Sexp.Atom "let" :: Sexp.List bindings :: body) ->
    (* Non-recursive: binding expressions see the outer scope. *)
    let names =
      List.filter_map
        (function
          | Sexp.List [ Sexp.Atom n; e ] ->
            walk ctx e;
            Some n
          | b ->
            add ctx Error "bad-form" "bad let binding %s%s" (describe b)
              (where ctx);
            None)
        bindings
    in
    push_scope ctx names;
    List.iter (walk ctx) body;
    pop_scope ctx ~code:"unused-binding" ~what:"let binding"
  | Sexp.List (Sexp.Atom "let" :: _) ->
    add ctx Error "bad-form" "let expects a binding list%s" (where ctx)
  | Sexp.List [ Sexp.Atom "set!"; Sexp.Atom name; value ] ->
    walk ctx value;
    if not (lookup_local ctx name ~mark:true) then (
      match Hashtbl.find_opt ctx.globals name with
      | Some g ->
        g.g_assigned <- true;
        (match data_alloc_kind value with
        | Some kind ->
          ctx.escaping <- ctx.escaping + 1;
          pretenure_note ctx ~kind ~sink:("assigned to global " ^ name)
        | None -> ())
      | None ->
        add ctx Error "unbound-var" "set! of unbound variable %s%s" name
          (where ctx))
  | Sexp.List (Sexp.Atom "set!" :: _) ->
    add ctx Error "bad-form" "set! expects a variable and a value%s" (where ctx)
  | Sexp.List [ Sexp.Atom "while" ] ->
    add ctx Error "bad-form" "while expects a condition%s" (where ctx)
  | Sexp.List (Sexp.Atom "while" :: cond :: body) ->
    walk ctx cond;
    (match literal_bool cond with
    | Some false ->
      add ctx Warning "unreachable"
        "while body is unreachable: condition %s is always false%s"
        (describe cond) (where ctx)
    | Some true ->
      add ctx Warning "constant-loop"
        "while condition %s is always true: the loop never exits normally%s"
        (describe cond) (where ctx)
    | None -> ());
    List.iter (walk ctx) body
  | Sexp.List (Sexp.Atom (("and" | "or") as op) :: rest) ->
    (* and stops at the first false, or at the first true: a constant
       terminator makes everything after it dead. *)
    let stops = op = "or" in
    let rec go = function
      | [] -> ()
      | [ last ] -> walk ctx last
      | x :: tail -> (
        walk ctx x;
        match literal_bool x with
        | Some b when b = stops ->
          add ctx Warning "unreachable"
            "%s: forms after the constant %s are unreachable%s" op (describe x)
            (where ctx);
          List.iter (walk ctx) tail
        | _ -> go tail)
    in
    go rest
  | Sexp.List (Sexp.Atom op :: args) when prim_here ctx op ->
    let _, arity = List.assoc op Ast.prims in
    if List.length args <> arity then
      add ctx Error "bad-arity" "%s expects %d arguments, got %d%s" op arity
        (List.length args) (where ctx);
    List.iter (walk ctx) args;
    (match op with
    | "cons" | "make-vector" -> ctx.data_allocs <- ctx.data_allocs + 1
    | _ -> ());
    (match (op, args) with
    | ("set-car!" | "set-cdr!"), [ _; v ] | "vector-set!", [ _; _; v ] -> (
      match data_alloc_kind v with
      | Some kind ->
        ctx.stored <- ctx.stored + 1;
        pretenure_note ctx ~kind ~sink:("stored into the heap via " ^ op)
      | None -> ())
    | _ -> ())
  | Sexp.List (f :: args) ->
    walk ctx f;
    List.iter (walk ctx) args;
    (* Arity against a top-level definition of known, never-reassigned
       arity. *)
    (match f with
    | Sexp.Atom name when not (lookup_local ctx name ~mark:false) -> (
      match Hashtbl.find_opt ctx.globals name with
      | Some { g_arity = Some k; _ } when k <> List.length args ->
        add ctx Error "bad-arity" "%s expects %d arguments, got %d%s" name k
          (List.length args) (where ctx)
      | _ -> ())
    | _ -> ())

and walk_lambda ctx ~name rest =
  ctx.closures <- ctx.closures + 1;
  match rest with
  | Sexp.List params :: body when body <> [] ->
    let names =
      List.filter_map
        (function
          | Sexp.Atom p -> Some p
          | s ->
            add ctx Error "bad-form" "bad parameter %s%s" (describe s)
              (where ctx);
            None)
        params
    in
    let saved = ctx.in_def in
    (match name with Some n -> ctx.in_def <- Some n | None -> ());
    push_scope ctx names;
    List.iter (walk ctx) body;
    pop_scope ctx ~code:"unused-param" ~what:"parameter";
    ctx.in_def <- saved
  | _ -> add ctx Error "bad-form" "bad lambda%s" (where ctx)

let walk_top ctx (s : Sexp.t) =
  match s with
  | Sexp.List [ Sexp.Atom "define"; Sexp.Atom name; value ] ->
    ctx.in_def <- Some name;
    (match value with
    | Sexp.List (Sexp.Atom "lambda" :: rest) ->
      walk_lambda ctx ~name:(Some name) rest
    | _ -> (
      walk ctx value;
      match data_alloc_kind value with
      | Some kind ->
        ctx.escaping <- ctx.escaping + 1;
        ctx.in_def <- None;
        add ctx Note "pretenure"
          "global %s is initialised with a %s: immortal data, a candidate for alloc_pretenured (belt >= 1)"
          name kind
      | None -> ()));
    ctx.in_def <- None
  | Sexp.List (Sexp.Atom "define" :: Sexp.List (Sexp.Atom name :: params) :: body)
    ->
    walk_lambda ctx ~name:(Some name) (Sexp.List params :: body)
  | Sexp.List (Sexp.Atom "define" :: _) ->
    add ctx Error "bad-form" "bad define %s" (describe s)
  | other -> walk ctx other

(* Pre-declare top-level definitions (mutual recursion, as in the
   resolver) and record function arities. *)
let predeclare ctx forms =
  List.iter
    (fun (s : Sexp.t) ->
      match s with
      | Sexp.List (Sexp.Atom "define" :: Sexp.Atom name :: rest) ->
        let g = declare ctx name in
        g.g_arity <-
          (match rest with
          | [ Sexp.List (Sexp.Atom "lambda" :: Sexp.List params :: _ :: _) ] ->
            Some (List.length params)
          | _ -> None)
      | Sexp.List (Sexp.Atom "define" :: Sexp.List (Sexp.Atom name :: params) :: _)
        ->
        (declare ctx name).g_arity <- Some (List.length params)
      | _ -> ())
    forms

(* Any textual (set! name ...) voids arity conclusions about the
   global [name]: the analysis cannot order assignments against
   calls. Conservative: shadowed set!s void it too. *)
let rec scan_assignments ctx (s : Sexp.t) =
  match s with
  | Sexp.Atom _ -> ()
  | Sexp.List [ Sexp.Atom "set!"; Sexp.Atom name; v ] ->
    (match Hashtbl.find_opt ctx.globals name with
    | Some g -> g.g_arity <- None
    | None -> ());
    scan_assignments ctx v
  | Sexp.List l -> List.iter (scan_assignments ctx) l

let analyze forms =
  let ctx =
    {
      diags = Vec.create ~dummy:{ severity = Note; code = ""; message = "" } ();
      globals = Hashtbl.create 32;
      global_order = Vec.create ~dummy:"" ();
      scopes = [];
      in_def = None;
      data_allocs = 0;
      closures = 0;
      escaping = 0;
      stored = 0;
    }
  in
  predeclare ctx forms;
  List.iter (scan_assignments ctx) forms;
  List.iter (walk_top ctx) forms;
  (* Bytecode operand limits: a scope-clean program can still overflow
     an operand field (nesting deeper than max_c hops, more than max_b
     bindings in a scope, an oversized constant pool). Run the real
     compiler — the only authority on the encoding — and surface its
     limit errors statically, instead of letting `--vm bytecode` fail
     at run time. Only meaningful when resolution succeeded: on scope
     errors the compiler would just re-reject what is already
     reported above. *)
  (if Vec.to_list ctx.diags |> List.for_all (fun d -> d.severity <> Error) then
     try ignore (Compile.compile (Ast.compile forms)) with
     | Ast.Compile_error msg ->
       add ctx Error "bytecode-limit" "%s (not encodable as bytecode)" msg
     | _ -> ());
  Vec.iter
    (fun name ->
      let g = Hashtbl.find ctx.globals name in
      if (not g.g_used) && warnable name then
        add ctx Warning "unused-global" "global %s is defined but never used"
          name)
    ctx.global_order;
  add ctx Note "alloc-summary"
    "allocation sites: %d data, %d closure; %d escaping to globals, %d stored into the heap"
    ctx.data_allocs ctx.closures ctx.escaping ctx.stored;
  Vec.to_list ctx.diags

let errors diags = List.length (List.filter (fun d -> d.severity = Error) diags)

let warnings diags =
  List.length (List.filter (fun d -> d.severity = Warning) diags)

let pp_diag fmt d =
  Format.fprintf fmt "lint: %s [%s] %s"
    (match d.severity with
    | Error -> "error"
    | Warning -> "warning"
    | Note -> "note")
    d.code d.message
