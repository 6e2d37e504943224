(** SQL text generation from a compiled relational {!Program}.

    Each flattened rule of the tgd ({!Clip_tgd.Tgd.rules}) becomes one
    SELECT statement: the rule's accumulated generator chain is the
    FROM clause (every generator ranges over a whole table, by
    {!Program.compile_result}), its comparisons the WHERE clause, its leaf
    assignments the select list, and grouped target generators
    contribute GROUP BY keys. Target-side conditions and the target
    chain survive as comments. The output is deterministic text for
    inspection and golden tests ([clip sql]); it is not executed
    against any database. *)

val of_program : Program.t -> string
