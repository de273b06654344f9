(** Flat bytecode for Beltlang.

    One instruction per word: opcode in the low 8 bits, operands
    packed above it (A: 24-bit, B: 16-bit, C: 8-bit unsigned), except
    [Push_int] whose bits 8..62 are one signed payload — the tagged
    immediate itself. Programs are a single [int array] code stream
    (toplevel first, ending in [halt]; lambda bodies after, each
    ending in [return]) plus constant, string and lambda tables.

    The numbering is shared verbatim with the VM's dispatch match;
    change both together. *)

(* Opcodes *)
val op_halt : int
val op_push_int : int
val op_push_const : int
val op_push_nil : int
val op_pop : int
val op_dup : int
val op_local : int
val op_set_local : int
val op_global : int
val op_set_global : int
val op_store_global : int
val op_jump : int
val op_jump_if_false : int
val op_jump_if_true : int
val op_enter_env : int
val op_exit_env : int
val op_closure : int
val op_call : int
val op_return : int
val op_qpair : int
val op_cons : int
val op_car : int
val op_cdr : int
val op_set_car : int
val op_set_cdr : int
val op_is_null : int
val op_is_pair : int
val op_not : int
val op_eq_phys : int
val op_add : int
val op_sub : int
val op_mul : int
val op_div : int
val op_mod : int
val op_lt : int
val op_le : int
val op_gt : int
val op_ge : int
val op_eq_num : int
val op_vec_make : int
val op_vec_ref : int
val op_vec_set : int
val op_vec_len : int
val op_print : int
val op_fail : int

(** Fused superinstructions: each replaces an allocation-free opcode
    sequence (compare + conditional jump; arith with a literal
    operand; local reads and updates; statement-position
    [vector-set!]), so fusion cannot change the operand stack at any
    allocation point — GC stats are identical to the unfused encoding
    by construction. Each is kept because compiling without it costs
    at least one bundled program 1% or more extra dispatches
    (DESIGN.md §3e); the unfused forms cover every other shape. *)

val op_jcmp_false : int
(** A = target pc, C = compare kind (index into {!cmp_name}, bit 3
    negates); pops both operands, branches when the compare is
    false. *)

val op_arith_imm : int
(** B = immediate operand, C = arith kind (index into {!arith_name});
    rewrites the top of stack in place. *)

(** Multi-word superinstructions ({!insn_len} > 1): the opcode word is
    followed by operand words — a local-variable triple packed in an
    opcode-less word's A/B/C fields, or a raw untagged immediate. All
    fuse allocation-free sequences only. *)

val op_jcmp_ll : int
(** 3 words: A = target, C = compare kind (bit 3 negates); w1, w2 =
    local triples. Pops nothing. *)

val op_jtest_l : int
(** 2 words: A = target, C = test kind (index into {!test_name}, bit 3
    negates); w1 = local triple. Branches when the test on the local
    fails. Pops nothing. *)

val op_upd_local : int
(** 3 words: B = immediate, C = arith kind; w1 = source triple, w2 =
    destination triple. Statement-position [(set! x (op y k))]. *)

val op_local_arith : int
(** 2 words: B = immediate, C = arith kind; w1 = source triple.
    Pushes [(op y k)]. *)

val op_local2 : int
(** 2 words: first triple inline, w1 = second triple. Pushes both. *)

val op_local_car : int
val op_local_cdr : int
(** 1 word: local triple inline. Push [(car x)] / [(cdr x)]. *)

val op_vec_set_void : int
(** Statement-position [vector-set!]: skips the push-null-then-pop of
    the expression form. *)

val op_jcmp_li : int
(** 3 words: A = target, C = compare kind; w1 = local triple, w2 =
    raw immediate. Pops nothing. *)

val op_jcmp_gg : int
(** 2 words: A = target, C = compare kind; w1 packs the two global
    indices in its A and B fields. Pops nothing. *)

val op_upd_global : int
(** 1 word: A = global, B = immediate, C = arith kind.
    Statement-position [(set! g (op g k))]. *)

val op_global_arith : int
(** 1 word: A = global, B = immediate, C = arith kind.
    Pushes [(op g k)]. *)

val op_cmp_imm : int
(** 2 words: C = compare kind (bit 3 negates); w1 = raw immediate.
    Pops the operand and pushes the boolean. *)

val op_jeq : int
(** 1 word: A = target, C bit 3 negates. Pops two operands, branches
    when they are not physically equal ([eq?] false, xor negate). *)

val op_count : int
(** Opcodes are numbered densely from 0 to [op_count - 1]. *)

val insn_len : int -> int
(** [insn_len insn] is the total word count of the instruction whose
    opcode word is [insn] (1 for classic opcodes). *)

val test_name : string array
(** Test-kind names for {!op_jtest_l} ([null?] [pair?]). *)

val negate_bit : int
(** Bit in operand C that negates a fused branch condition (absorbs a
    wrapping [not]). *)

val cmp_name : string array
(** Compare-kind names ([<] [<=] [>] [>=] [=]), shared with runtime
    error messages so fused code fails byte-identically. *)

val arith_name : string array
(** Arith-kind names ([+] [-] [*] [/] [mod]), shared likewise. *)

(** Operand capacity: exceeding any of these is a compile-time
    [Ast.Compile_error] (and a ["bytecode-limit"] lint). *)

val max_a : int
(** Jump targets, stack offsets, global/const/string indices, arity. *)

val max_b : int
(** Variable slots, binding counts, lambda indices. *)

val max_c : int
(** Environment-chain hops (lexical nesting distance). *)

val fits_payload : int -> bool
(** Whether a tagged immediate fits the inline [Push_int] payload
    (55 signed bits); wider values go through the constant pool. *)

val make : ?a:int -> ?b:int -> ?c:int -> int -> int
val make_payload : int -> int -> int
(** [make_payload op payload] packs a signed 55-bit payload. *)

val op : int -> int
val a : int -> int
val b : int -> int
val c : int -> int
val payload : int -> int

val with_a : int -> int -> int
(** [with_a insn target] rewrites operand A (jump patching). *)

type lambda_info = { l_entry : int; l_params : int; l_name : string }

type program = {
  code : int array;
  consts : int array;
  strings : string array;
  lambdas : lambda_info array;
  globals : string array;
}

val op_name : int -> string

val pp : Format.formatter -> program -> unit
(** Disassembly, as printed by [beltlang --dump-bytecode]. *)
