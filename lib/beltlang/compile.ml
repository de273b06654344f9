(* Ast -> Bytecode.

   The compiled code's operand stack IS the collector's shadow stack
   (Roots), so the compilation discipline is not free: at every
   allocation site the stack must hold exactly the values the AST
   interpreter has pushed at the same point, or the two engines
   diverge in GC behaviour (different live sets -> different copied
   words -> different stats). The rules that guarantee this:

   - every expression compiles to code with net stack effect +1;
   - argument lists (prims, calls, let bindings, quoted pairs) are
     evaluated left to right, each result staying on the stack until
     the consuming instruction, exactly as [Interp] pushes them;
   - values the interpreter holds only in OCaml locals (an [if]
     condition, a discarded [begin] statement, a returned body result
     during frame release) are popped before the next instruction
     that can allocate.

   Variable resolution: the interpreter walks the environment-frame
   parent chain [depth] times for every access. Here each lexical
   scope whose frame lives in the current function's stack segment is
   resolved to a static fp-relative offset (zero hops); only scopes
   captured from enclosing functions are reached by parent-chain hops
   starting at the function's parameter frame (offset 0). *)

module Vec = Beltway_util.Vec
module B = Bytecode

let err fmt = Format.kasprintf (fun s -> raise (Ast.Compile_error s)) fmt

type ctx = {
  code : int Vec.t;
  consts : int Vec.t;
  const_ids : (int, int) Hashtbl.t;
  strings : string Vec.t;
  string_ids : (string, int) Hashtbl.t;
}

(* Per-function compile state: [scopes] holds the fp-relative offset
   of each stack-resident environment frame (innermost first; the
   last entry is always 0, the parameter/toplevel frame at fp); [sp]
   is the static stack pointer, the fp-relative offset of the next
   push. *)
type frame_ctx = { mutable scopes : int list; mutable sp : int }

let emit ctx insn = Vec.push ctx.code insn
let here ctx = Vec.length ctx.code

let check_a what v =
  if v < 0 || v >= B.max_a then
    err "bytecode limit: %s %d exceeds %d" what v (B.max_a - 1)

let check_b what v =
  if v < 0 || v >= B.max_b then
    err "bytecode limit: %s %d exceeds %d" what v (B.max_b - 1)

let check_c what v =
  if v < 0 || v >= B.max_c then
    err "bytecode limit: %s %d exceeds %d" what v (B.max_c - 1)

(* Emit a jump with a placeholder target; patch once the target pc is
   known. *)
let emit_jump ctx op =
  let at = here ctx in
  emit ctx (B.make op);
  at

let patch ctx at =
  let target = here ctx in
  check_a "jump target" target;
  Vec.set ctx.code at (B.with_a (Vec.get ctx.code at) target)

let const_id ctx tagged =
  match Hashtbl.find_opt ctx.const_ids tagged with
  | Some i -> i
  | None ->
    let i = Vec.length ctx.consts in
    check_a "constant-pool index" i;
    Vec.push ctx.consts tagged;
    Hashtbl.replace ctx.const_ids tagged i;
    i

let string_id ctx s =
  match Hashtbl.find_opt ctx.string_ids s with
  | Some i -> i
  | None ->
    let i = Vec.length ctx.strings in
    check_a "string-pool index" i;
    Vec.push ctx.strings s;
    Hashtbl.replace ctx.string_ids s i;
    i

(* Push a tagged immediate: inline when it fits the payload. *)
let emit_push_value ctx fctx tagged =
  if B.fits_payload tagged then emit ctx (B.make_payload B.op_push_int tagged)
  else emit ctx (B.make B.op_push_const ~a:(const_id ctx tagged));
  fctx.sp <- fctx.sp + 1

let emit_push_int ctx fctx n = emit_push_value ctx fctx ((n lsl 1) lor 1)

(* Resolve a [Var] depth to (fp-relative frame offset, parent hops). *)
let resolve fctx depth =
  let m = List.length fctx.scopes in
  if depth < m then (List.nth fctx.scopes depth, 0) else (0, depth - m + 1)

(* Immediates eligible for [arith_imm] fusion: operand B is 16-bit
   unsigned. *)
let imm_ok k = k >= 0 && k < B.max_b

let cmp_kind = function
  | Ast.Lt -> 0
  | Ast.Le -> 1
  | Ast.Gt -> 2
  | Ast.Ge -> 3
  | _ -> 4

(* Operand word for a multi-word superinstruction: a local's (frame
   offset, slot, hops) triple packed in an opcode-less word. *)
let triple_word fctx ~depth ~idx =
  let off, hops = resolve fctx depth in
  check_a "stack offset" off;
  check_b "variable slot" idx;
  check_c "scope nesting (hops)" hops;
  B.make 0 ~a:off ~b:idx ~c:hops

(* (frame, slot, immediate, arith kind) of a fusable
   [(set! x (op y k))] right-hand side, if the shape allows it. *)
let upd_local_parts = function
  | Ast.Prim (Ast.Add, [ Ast.Var { depth; idx }; Ast.Int k ]) when imm_ok k ->
    Some (depth, idx, k, 0)
  | Ast.Prim (Ast.Add, [ Ast.Int k; Ast.Var { depth; idx } ]) when imm_ok k ->
    Some (depth, idx, k, 0)
  | Ast.Prim (Ast.Sub, [ Ast.Var { depth; idx }; Ast.Int k ]) when imm_ok k ->
    Some (depth, idx, k, 1)
  | Ast.Prim (Ast.Mul, [ Ast.Var { depth; idx }; Ast.Int k ]) when imm_ok k ->
    Some (depth, idx, k, 2)
  | Ast.Prim (Ast.Mul, [ Ast.Int k; Ast.Var { depth; idx } ]) when imm_ok k ->
    Some (depth, idx, k, 2)
  | Ast.Prim (Ast.Div, [ Ast.Var { depth; idx }; Ast.Int k ])
    when imm_ok k && k <> 0 ->
    Some (depth, idx, k, 3)
  | Ast.Prim (Ast.Mod, [ Ast.Var { depth; idx }; Ast.Int k ])
    when imm_ok k && k <> 0 ->
    Some (depth, idx, k, 4)
  | _ -> None

(* Same shape with a global source, for [(set! g (op g k))]: the
   destination global must be the source (read-modify-write of one
   root slot), and its index must fit the 24-bit A field — which the
   unfused encoding requires anyway. *)
let upd_global_parts g = function
  | Ast.Prim (Ast.Add, [ Ast.Global g'; Ast.Int k ]) when g' = g && imm_ok k ->
    Some (k, 0)
  | Ast.Prim (Ast.Add, [ Ast.Int k; Ast.Global g' ]) when g' = g && imm_ok k ->
    Some (k, 0)
  | Ast.Prim (Ast.Sub, [ Ast.Global g'; Ast.Int k ]) when g' = g && imm_ok k ->
    Some (k, 1)
  | Ast.Prim (Ast.Mul, [ Ast.Global g'; Ast.Int k ]) when g' = g && imm_ok k ->
    Some (k, 2)
  | Ast.Prim (Ast.Mul, [ Ast.Int k; Ast.Global g' ]) when g' = g && imm_ok k ->
    Some (k, 2)
  | Ast.Prim (Ast.Div, [ Ast.Global g'; Ast.Int k ])
    when g' = g && imm_ok k && k <> 0 ->
    Some (k, 3)
  | Ast.Prim (Ast.Mod, [ Ast.Global g'; Ast.Int k ])
    when g' = g && imm_ok k && k <> 0 ->
    Some (k, 4)
  | _ -> None

let rec compile_expr ctx fctx (e : Ast.expr) =
  match e with
  | Ast.Int n -> emit_push_int ctx fctx n
  | Ast.Bool b -> emit_push_int ctx fctx (if b then 1 else 0)
  | Ast.Nil ->
    emit ctx (B.make B.op_push_nil);
    fctx.sp <- fctx.sp + 1
  | Ast.Var { depth; idx } ->
    let off, hops = resolve fctx depth in
    check_a "stack offset" off;
    check_b "variable slot" idx;
    check_c "scope nesting (hops)" hops;
    emit ctx (B.make B.op_local ~a:off ~b:idx ~c:hops);
    fctx.sp <- fctx.sp + 1
  | Ast.Global g ->
    check_a "global index" g;
    emit ctx (B.make B.op_global ~a:g);
    fctx.sp <- fctx.sp + 1
  | Ast.If (c, t, e) ->
    let jf = compile_branch_unless ctx fctx c in
    let sp0 = fctx.sp in
    compile_expr ctx fctx t;
    let je = emit_jump ctx B.op_jump in
    patch ctx jf;
    fctx.sp <- sp0;
    compile_expr ctx fctx e;
    patch ctx je
  | Ast.Begin body -> compile_body ctx fctx body
  | Ast.And body -> (
    (* (and) = #t; a falsy non-final form short-circuits to #f; the
       final form's value is returned as-is. *)
    match body with
    | [] -> emit_push_int ctx fctx 1
    | body ->
      let sp0 = fctx.sp in
      let jumps = ref [] in
      let rec go = function
        | [] -> assert false
        | [ last ] -> compile_expr ctx fctx last
        | x :: rest ->
          jumps := compile_branch_unless ctx fctx x :: !jumps;
          go rest
      in
      go body;
      let jend = emit_jump ctx B.op_jump in
      List.iter (patch ctx) !jumps;
      fctx.sp <- sp0;
      emit_push_int ctx fctx 0;
      patch ctx jend)
  | Ast.Or body ->
    (* The first truthy value wins; all-falsy (including the last
       form) yields #f, as in the interpreter. *)
    let sp0 = fctx.sp in
    let jumps = ref [] in
    List.iter
      (fun x ->
        compile_expr ctx fctx x;
        emit ctx (B.make B.op_dup);
        jumps := emit_jump ctx B.op_jump_if_true :: !jumps;
        emit ctx (B.make B.op_pop);
        fctx.sp <- fctx.sp - 1)
      body;
    fctx.sp <- sp0;
    emit_push_int ctx fctx 0;
    List.iter (patch ctx) !jumps
  | Ast.While { cond; body } ->
    let top = here ctx in
    let jend = compile_branch_unless ctx fctx cond in
    List.iter (compile_discard ctx fctx) body;
    check_a "jump target" top;
    emit ctx (B.make B.op_jump ~a:top);
    patch ctx jend;
    emit ctx (B.make B.op_push_nil);
    fctx.sp <- fctx.sp + 1
  | Ast.Set_var { depth; idx; value } ->
    compile_expr ctx fctx value;
    let off, hops = resolve fctx depth in
    check_a "stack offset" off;
    check_b "variable slot" idx;
    check_c "scope nesting (hops)" hops;
    emit ctx (B.make B.op_set_local ~a:off ~b:idx ~c:hops)
  | Ast.Set_global { idx; value } ->
    compile_expr ctx fctx value;
    check_a "global index" idx;
    emit ctx (B.make B.op_set_global ~a:idx)
  | Ast.Lambda { lam } ->
    check_b "lambda index" lam;
    let parent = List.hd fctx.scopes in
    check_a "stack offset" parent;
    emit ctx (B.make B.op_closure ~a:parent ~b:lam);
    fctx.sp <- fctx.sp + 1
  | Ast.Let { bindings; body } ->
    let k = List.length bindings in
    check_b "let binding count" k;
    compile_args ctx fctx bindings;
    let parent = List.hd fctx.scopes in
    check_a "stack offset" parent;
    emit ctx (B.make B.op_enter_env ~a:parent ~b:k);
    fctx.sp <- fctx.sp + 1;
    (* The new frame sits just below the (now consumed-into-frame but
       still stacked) bindings: sp - 1 is its offset. *)
    let saved = fctx.scopes in
    fctx.scopes <- (fctx.sp - 1) :: saved;
    compile_body ctx fctx body;
    fctx.scopes <- saved;
    emit ctx (B.make B.op_exit_env ~a:k);
    fctx.sp <- fctx.sp - (k + 1)
  | Ast.Call (f, args) ->
    compile_expr ctx fctx f;
    compile_args ctx fctx args;
    let nargs = List.length args in
    check_a "argument count" nargs;
    emit ctx (B.make B.op_call ~a:nargs);
    fctx.sp <- fctx.sp - nargs
  (* Literal arith operand: fuse into [arith_imm], rewriting the top
     of stack in place. Sound for any evaluation order here — the
     dropped stack slot would have held an immediate, which is
     invisible to the collector — and sound for [Int k; x] orders only
     when the operator commutes (so not [Sub]). The type check hits
     the non-literal operand first in both encodings, so error
     messages match. *)
  | Ast.Prim ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), [ _; Ast.Int _ ])
  | Ast.Prim ((Ast.Add | Ast.Mul), [ Ast.Int _; _ ]) ->
    compile_arith_imm ctx fctx e
  | Ast.Prim (Ast.Not, [ _ ])
  | Ast.Prim
      ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq_num), [ _; Ast.Int _ ]) ->
    compile_bool ctx fctx ~negate:false e
  | Ast.Prim (Ast.Car, [ Ast.Var { depth; idx } ]) ->
    emit ctx (B.make B.op_local_car lor triple_word fctx ~depth ~idx);
    fctx.sp <- fctx.sp + 1
  | Ast.Prim (Ast.Cdr, [ Ast.Var { depth; idx } ]) ->
    emit ctx (B.make B.op_local_cdr lor triple_word fctx ~depth ~idx);
    fctx.sp <- fctx.sp + 1
  | Ast.Prim (p, args) -> compile_prim ctx fctx p args
  | Ast.Quoted q -> compile_quote ctx fctx q

(* Literal arith operand, dispatched from [compile_expr]: fuse into
   [local_arith] (local source read inline) or [arith_imm] (top of
   stack rewritten in place); falls back to the generic encoding when
   the immediate does not fit operand B. Sound for the [Int k; x]
   orders only because [+] and [*] commute; the dropped stack slot
   would have held an immediate, invisible to the collector, and the
   type check hits the non-literal operand first in both encodings. *)
and compile_arith_imm ctx fctx e =
  let fused x k kind =
    match x with
    | Ast.Var { depth; idx } ->
      let w = triple_word fctx ~depth ~idx in
      emit ctx (B.make B.op_local_arith ~b:k ~c:kind);
      emit ctx w;
      fctx.sp <- fctx.sp + 1
    | Ast.Global g ->
      check_a "global index" g;
      emit ctx (B.make B.op_global_arith ~a:g ~b:k ~c:kind);
      fctx.sp <- fctx.sp + 1
    | x ->
      compile_expr ctx fctx x;
      emit ctx (B.make B.op_arith_imm ~b:k ~c:kind)
  in
  match e with
  | Ast.Prim (Ast.Add, [ x; Ast.Int k ]) when imm_ok k -> fused x k 0
  | Ast.Prim (Ast.Add, [ Ast.Int k; x ]) when imm_ok k -> fused x k 0
  | Ast.Prim (Ast.Sub, [ x; Ast.Int k ]) when imm_ok k -> fused x k 1
  | Ast.Prim (Ast.Mul, [ x; Ast.Int k ]) when imm_ok k -> fused x k 2
  | Ast.Prim (Ast.Mul, [ Ast.Int k; x ]) when imm_ok k -> fused x k 2
  | Ast.Prim (Ast.Div, [ x; Ast.Int k ]) when imm_ok k && k <> 0 ->
    fused x k 3
  | Ast.Prim (Ast.Mod, [ x; Ast.Int k ]) when imm_ok k && k <> 0 ->
    fused x k 4
  | Ast.Prim (p, args) -> compile_prim ctx fctx p args
  | _ -> assert false

(* Boolean-producing expression with a fusable shape: a top-level
   [not] is absorbed into the negate bit, and compare-with-literal
   becomes one dispatch that pushes the boolean directly. Any other
   negated operand is materialised with [not]; so is a second [not],
   which cannot cancel the first in value context — [(not (not 41))]
   is the boolean true, not [41]. *)
and compile_bool ctx fctx ~negate (e : Ast.expr) =
  let neg = if negate then B.negate_bit else 0 in
  match e with
  | Ast.Prim (Ast.Not, [ x ]) when not negate -> compile_bool ctx fctx ~negate:true x
  | Ast.Prim (Ast.Not, [ x ]) ->
    compile_bool ctx fctx ~negate:true x;
    emit ctx (B.make B.op_not)
  | Ast.Prim
      (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq_num) as p), [ x; Ast.Int k ])
    ->
    compile_expr ctx fctx x;
    emit ctx (B.make B.op_cmp_imm ~c:(cmp_kind p lor neg));
    emit ctx k
  | e ->
    compile_expr ctx fctx e;
    if negate then emit ctx (B.make B.op_not)

(* Argument lists (prims, calls, let bindings): adjacent local reads
   collapse into [local2] — both pushes, one dispatch. *)
and compile_args ctx fctx = function
  | Ast.Var { depth = d1; idx = i1 } :: Ast.Var { depth = d2; idx = i2 } :: rest
    ->
    let w1 = triple_word fctx ~depth:d1 ~idx:i1 in
    let w2 = triple_word fctx ~depth:d2 ~idx:i2 in
    emit ctx (B.make B.op_local2 lor w1);
    emit ctx w2;
    fctx.sp <- fctx.sp + 2;
    compile_args ctx fctx rest
  | x :: rest ->
    compile_expr ctx fctx x;
    compile_args ctx fctx rest
  | [] -> ()

and compile_prim ctx fctx p args =
    compile_args ctx fctx args;
    let n = List.length args in
    let opcode =
      match p with
      | Ast.Add -> B.op_add
      | Ast.Sub -> B.op_sub
      | Ast.Mul -> B.op_mul
      | Ast.Div -> B.op_div
      | Ast.Mod -> B.op_mod
      | Ast.Lt -> B.op_lt
      | Ast.Le -> B.op_le
      | Ast.Gt -> B.op_gt
      | Ast.Ge -> B.op_ge
      | Ast.Eq_num -> B.op_eq_num
      | Ast.Eq_phys -> B.op_eq_phys
      | Ast.Not -> B.op_not
      | Ast.Cons -> B.op_cons
      | Ast.Car -> B.op_car
      | Ast.Cdr -> B.op_cdr
      | Ast.Set_car -> B.op_set_car
      | Ast.Set_cdr -> B.op_set_cdr
      | Ast.Is_null -> B.op_is_null
      | Ast.Is_pair -> B.op_is_pair
      | Ast.Vector_make -> B.op_vec_make
      | Ast.Vector_ref -> B.op_vec_ref
      | Ast.Vector_set -> B.op_vec_set
      | Ast.Vector_length -> B.op_vec_len
      | Ast.Print -> B.op_print
    in
    emit ctx (B.make opcode);
    fctx.sp <- fctx.sp - n + 1

(* Compile [c] and emit a forward branch taken when it is falsy (or
   truthy, under [negate] — a wrapping [not] is absorbed by flipping
   the flag rather than materialising a boolean). Returns the jump
   index for [patch]. Top-level integer compares fuse into
   single-dispatch branch forms, as do null?/pair? tests of a local;
   local and global operands are read inline. Every fused span is
   allocation-free, so the operand stack at each allocation point —
   and hence GC stats — match the unfused encoding; type checks keep
   the unfused operand order and error strings. *)
and compile_branch_unless ?(negate = false) ctx fctx (c : Ast.expr) =
  let neg = if negate then B.negate_bit else 0 in
  match c with
  | Ast.Prim (Ast.Not, [ c ]) ->
    compile_branch_unless ~negate:(not negate) ctx fctx c
  | Ast.Prim
      ( ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq_num) as p),
        [ Ast.Var { depth = d1; idx = i1 }; Ast.Var { depth = d2; idx = i2 } ]
      ) ->
    let w1 = triple_word fctx ~depth:d1 ~idx:i1 in
    let w2 = triple_word fctx ~depth:d2 ~idx:i2 in
    let at = here ctx in
    emit ctx (B.make B.op_jcmp_ll ~c:(cmp_kind p lor neg));
    emit ctx w1;
    emit ctx w2;
    at
  | Ast.Prim
      ( ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq_num) as p),
        [ Ast.Var { depth; idx }; Ast.Int k ] ) ->
    let w = triple_word fctx ~depth ~idx in
    let at = here ctx in
    emit ctx (B.make B.op_jcmp_li ~c:(cmp_kind p lor neg));
    emit ctx w;
    emit ctx k;
    at
  | Ast.Prim
      ( ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq_num) as p),
        [ Ast.Global g1; Ast.Global g2 ] )
    when g2 < B.max_b ->
    check_a "global index" g1;
    let at = here ctx in
    emit ctx (B.make B.op_jcmp_gg ~c:(cmp_kind p lor neg));
    emit ctx (B.make 0 ~a:g1 ~b:g2);
    at
  | Ast.Prim (Ast.Eq_phys, [ x; y ]) ->
    compile_args ctx fctx [ x; y ];
    let at = here ctx in
    emit ctx (B.make B.op_jeq ~c:neg);
    fctx.sp <- fctx.sp - 2;
    at
  | Ast.Prim (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq_num) as p), [ x; y ])
    ->
    compile_expr ctx fctx x;
    compile_expr ctx fctx y;
    let at = here ctx in
    emit ctx (B.make B.op_jcmp_false ~c:(cmp_kind p lor neg));
    fctx.sp <- fctx.sp - 2;
    at
  | Ast.Prim (((Ast.Is_null | Ast.Is_pair) as p), [ Ast.Var { depth; idx } ])
    ->
    let w = triple_word fctx ~depth ~idx in
    let at = here ctx in
    emit ctx
      (B.make B.op_jtest_l ~c:((match p with Ast.Is_null -> 0 | _ -> 1) lor neg));
    emit ctx w;
    at
  | c ->
    compile_expr ctx fctx c;
    let jf =
      emit_jump ctx
        (if negate then B.op_jump_if_true else B.op_jump_if_false)
    in
    fctx.sp <- fctx.sp - 1;
    jf

(* Statement position: compile [e] for effect, leaving nothing on the
   stack. The read-modify-write [set!] forms and [vector-set!] skip the
   push-null-then-pop dance of their expression encoding (the skipped
   null is invisible to the collector: no allocation point between its
   push and pop); control forms propagate the discard into their
   branches. *)
and compile_discard ctx fctx (e : Ast.expr) =
  match e with
  | Ast.Set_var { depth; idx; value }
    when Option.is_some (upd_local_parts value) ->
    (* (set! x (op y k)): read, arith and write in one dispatch. *)
    let sd, si, k, kind = Option.get (upd_local_parts value) in
    let src = triple_word fctx ~depth:sd ~idx:si in
    let dst = triple_word fctx ~depth ~idx in
    emit ctx (B.make B.op_upd_local ~b:k ~c:kind);
    emit ctx src;
    emit ctx dst
  | Ast.Set_global { idx; value } -> (
    match upd_global_parts idx value with
    | Some (k, kind) ->
      (* (set! g (op g k)): read-modify-write of one root slot. *)
      check_a "global index" idx;
      emit ctx (B.make B.op_upd_global ~a:idx ~b:k ~c:kind)
    | None ->
      compile_expr ctx fctx value;
      check_a "global index" idx;
      emit ctx (B.make B.op_store_global ~a:idx);
      fctx.sp <- fctx.sp - 1)
  | Ast.Prim (Ast.Vector_set, ([ _; _; _ ] as args)) ->
    compile_args ctx fctx args;
    emit ctx (B.make B.op_vec_set_void);
    fctx.sp <- fctx.sp - 3
  | Ast.If (c, t, e) ->
    let jf = compile_branch_unless ctx fctx c in
    let sp0 = fctx.sp in
    compile_discard ctx fctx t;
    let je = emit_jump ctx B.op_jump in
    patch ctx jf;
    fctx.sp <- sp0;
    compile_discard ctx fctx e;
    patch ctx je
  | Ast.Begin body -> List.iter (compile_discard ctx fctx) body
  | Ast.While { cond; body } ->
    let top = here ctx in
    let jend = compile_branch_unless ctx fctx cond in
    List.iter (compile_discard ctx fctx) body;
    check_a "jump target" top;
    emit ctx (B.make B.op_jump ~a:top);
    patch ctx jend
  | e ->
    compile_expr ctx fctx e;
    emit ctx (B.make B.op_pop);
    fctx.sp <- fctx.sp - 1

(* [eval_body]: all but the last statement are evaluated for effect. *)
and compile_body ctx fctx = function
  | [] ->
    emit ctx (B.make B.op_push_nil);
    fctx.sp <- fctx.sp + 1
  | [ last ] -> compile_expr ctx fctx last
  | x :: rest ->
    compile_discard ctx fctx x;
    compile_body ctx fctx rest

(* Quoted data, with the interpreter's build order: tail first, then
   head, then the pair — both on the stack across the allocation.
   Unsupported atoms become a runtime [Fail], not a compile error,
   matching the interpreter's behaviour for unreached quotes. *)
and compile_quote ctx fctx (s : Sexp.t) =
  match s with
  | Sexp.Atom "#t" -> emit_push_int ctx fctx 1
  | Sexp.Atom "#f" -> emit_push_int ctx fctx 0
  | Sexp.Atom "nil" ->
    emit ctx (B.make B.op_push_nil);
    fctx.sp <- fctx.sp + 1
  | Sexp.Atom a -> (
    match Ast.int_literal a with
    | `Int n -> emit_push_int ctx fctx n
    | `Out_of_range | `Symbol ->
      let msg = Printf.sprintf "quote: symbols are not supported (%s)" a in
      emit ctx (B.make B.op_fail ~a:(string_id ctx msg));
      (* never returns at runtime; keep the static stack consistent *)
      fctx.sp <- fctx.sp + 1)
  | Sexp.List items ->
    let rec build = function
      | [] ->
        emit ctx (B.make B.op_push_nil);
        fctx.sp <- fctx.sp + 1
      | x :: rest ->
        build rest;
        compile_quote ctx fctx x;
        emit ctx (B.make B.op_qpair);
        fctx.sp <- fctx.sp - 1
    in
    build items

let compile (prog : Ast.program) : B.program =
  let ctx =
    {
      code = Vec.create ~dummy:0 ();
      consts = Vec.create ~dummy:0 ();
      const_ids = Hashtbl.create 16;
      strings = Vec.create ~dummy:"" ();
      string_ids = Hashtbl.create 16;
    }
  in
  (* Toplevel: one degenerate root frame at fp (pushed by the VM's
     run), each form's value stored to its global or dropped. *)
  let fctx = { scopes = [ 0 ]; sp = 1 } in
  List.iter
    (fun (target, e) ->
      match target with
      | Some g ->
        compile_expr ctx fctx e;
        check_a "global index" g;
        emit ctx (B.make B.op_store_global ~a:g);
        fctx.sp <- fctx.sp - 1
      | None -> compile_discard ctx fctx e)
    prog.Ast.toplevel;
  emit ctx (B.make B.op_halt);
  (* Lambda bodies, in table order; each starts a fresh frame context
     whose scope 0 is the parameter frame the caller pushes. *)
  let lambdas =
    Array.map
      (fun (lam : Ast.lambda) ->
        let entry = here ctx in
        check_a "code size" entry;
        let fctx = { scopes = [ 0 ]; sp = 1 } in
        compile_body ctx fctx lam.Ast.body;
        emit ctx (B.make B.op_return);
        { B.l_entry = entry; l_params = lam.Ast.params; l_name = lam.Ast.name })
      prog.Ast.lambdas
  in
  if here ctx > B.max_a then
    err "bytecode limit: program of %d instructions exceeds %d" (here ctx)
      B.max_a;
  {
    B.code = Vec.to_array ctx.code;
    consts = Vec.to_array ctx.consts;
    strings = Vec.to_array ctx.strings;
    lambdas;
    globals = prog.Ast.globals;
  }

(* Allocation sites of a compiled unit, for the demographics profiler:
   one (pc, label) pair per allocating opcode (environment frames,
   closures, call frames, pairs and vectors — the fused
   superinstructions are allocation-free by construction, so only the
   six base opcodes appear). Labels name the enclosing lambda — the
   one with the greatest entry point at or below the pc; toplevel code
   precedes every lambda body — plus the pc and the allocation kind,
   e.g. ["fib@42:frame"]. *)
let alloc_sites (p : B.program) =
  let owner pc =
    let best = ref None in
    Array.iter
      (fun (li : B.lambda_info) ->
        if li.B.l_entry <= pc then
          match !best with
          | Some (b : B.lambda_info) when b.B.l_entry >= li.B.l_entry -> ()
          | _ -> best := Some li)
      p.B.lambdas;
    match !best with
    | Some li -> li.B.l_name
    | None -> "<toplevel>"
  in
  let acc = ref [] in
  let n = Array.length p.B.code in
  let pc = ref 0 in
  while !pc < n do
    let insn = p.B.code.(!pc) in
    let opc = B.op insn in
    let kind =
      if opc = B.op_enter_env then Some "env"
      else if opc = B.op_closure then Some "closure"
      else if opc = B.op_call then Some "frame"
      else if opc = B.op_qpair then Some "quote"
      else if opc = B.op_cons then Some "cons"
      else if opc = B.op_vec_make then Some "vector"
      else None
    in
    (match kind with
    | Some k ->
      acc := (!pc, Printf.sprintf "%s@%d:%s" (owner !pc) !pc k) :: !acc
    | None -> ());
    pc := !pc + B.insn_len insn
  done;
  Array.of_list (List.rev !acc)
