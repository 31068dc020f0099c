#!/usr/bin/env python3
"""Sentiment walkthrough: raw post text to a labeled polarity row.

The pipeline runs normalize -> tokenize -> stopword removal -> lexicon
scoring; the bundled lexicon ships with the package so nothing here
needs the network.
"""

from pathlib import Path

from btcforecast.sentiment import (
    Lexicon,
    classify,
    normalize_text,
    process_post,
    read_posts,
    remove_stopwords,
    score_polarity,
    tokenize,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# --- stage by stage on one tweet
raw = "Sooooo bullish on #Bitcoin @whale_alert https://t.co/xyz 🚀🚀"
print(f"raw:        {raw!r}")

normalized = normalize_text(raw)
print(f"normalized: {normalized!r}")   # URL token, hashtag stripped, run collapsed

tokens = tokenize(normalized)
print(f"tokens:     {tokens}")         # lowercased, emoji dropped

content = remove_stopwords(tokens)
print(f"content:    {content}")        # 'on' and friends removed

lexicon = Lexicon.bundled()
polarity = score_polarity(content, lexicon)
print(f"polarity:   {polarity:+.3f} -> {classify(polarity)}")

# --- the same thing as one call over a posts file
print("\nscoring the bundled sample posts:")
for timestamp, text in read_posts(FIXTURES / "posts.csv"):
    _, polarity, label = process_post((timestamp, text), lexicon)
    snippet = text[:44] + ("..." if len(text) > 44 else "")
    print(f"  {label:<8} {polarity:+.2f}  {snippet!r}")
